// Memory access trace abstraction.
//
// The paper drives its simulator with Pin-captured traces of SPEC CPU2006,
// MiBench, and SPLASH-2. Those traces cannot be redistributed, so this
// library accepts both file traces (text or binary, see file_source.h) and
// synthetic per-benchmark generators (synthetic.h) that reproduce the
// aggregate stream statistics the architectures are sensitive to.
#pragma once

#include <algorithm>
#include <cstddef>
#include <optional>
#include <vector>

#include "common/types.h"

namespace wompcm {

struct TraceRecord {
  Tick gap = 0;  // nanoseconds since the previous record's arrival
  AccessType type = AccessType::kRead;
  Addr addr = 0;
};

class TraceSource {
 public:
  virtual ~TraceSource() = default;
  // Returns the next record, or nullopt at end of trace.
  virtual std::optional<TraceRecord> next() = 0;

  // Bulk fetch: fills `out` with up to `max` records and returns the count
  // (0 at end of trace). Exactly equivalent to `max` sequential next()
  // calls — same records, same order — so callers may mix the two freely.
  // The default loops over next(); sources with cheap in-memory access
  // override it so the batch front end (SimService::run_to_completion)
  // pays the virtual call and refill bookkeeping once per block instead of
  // once per record.
  virtual std::size_t next_block(TraceRecord* out, std::size_t max) {
    std::size_t n = 0;
    while (n < max) {
      const std::optional<TraceRecord> rec = next();
      if (!rec) break;
      out[n++] = *rec;
    }
    return n;
  }
};

// In-memory trace, mainly for tests.
class VectorTraceSource final : public TraceSource {
 public:
  explicit VectorTraceSource(std::vector<TraceRecord> records)
      : records_(std::move(records)) {}

  std::optional<TraceRecord> next() override {
    if (pos_ >= records_.size()) return std::nullopt;
    return records_[pos_++];
  }

  std::size_t next_block(TraceRecord* out, std::size_t max) override {
    const std::size_t n = std::min(max, records_.size() - pos_);
    std::copy_n(records_.begin() + static_cast<std::ptrdiff_t>(pos_), n, out);
    pos_ += n;
    return n;
  }

 private:
  std::vector<TraceRecord> records_;
  std::size_t pos_ = 0;
};

}  // namespace wompcm
