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

#include "common/address.h"
#include "common/types.h"

namespace wompcm {

// One access. The address is already decoded: synthetic generators place
// accesses by coordinate, and file readers decode each record once, as
// they read it (trace/binary_source.h).
struct TraceRecord {
  Tick gap = 0;  // nanoseconds since the previous record's arrival
  AccessType type = AccessType::kRead;
  DecodedAddr dec;
};

class TraceSource {
 public:
  virtual ~TraceSource() = default;

  // Fills `out` with up to `max` records and returns the count. A count
  // below `max` means the trace has ended; 0 means it had ended already.
  // The batch front end (SimService::run_to_completion) fetches a block at
  // a time, so it pays the virtual call once per block, not per record.
  virtual std::size_t next_block(TraceRecord* out, std::size_t max) = 0;

  // Returns the next record, or nullopt at end of trace. Mixes freely with
  // next_block().
  std::optional<TraceRecord> next() {
    TraceRecord rec;
    if (next_block(&rec, 1) == 0) return std::nullopt;
    return rec;
  }
};

// In-memory trace, mainly for tests.
class VectorTraceSource final : public TraceSource {
 public:
  explicit VectorTraceSource(std::vector<TraceRecord> records)
      : records_(std::move(records)) {}

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
