#include "wom/wom_tracker.h"

#include <cassert>

#include "common/perf.h"

namespace wompcm {

WomStateTracker::WomStateTracker(unsigned max_writes, unsigned lines_per_row,
                                 bool erased_start)
    : t_(max_writes), lines_(lines_per_row), erased_start_(erased_start) {
  assert(t_ >= 1);
  assert(t_ < kUnknownGen);
  assert(lines_ >= 1);
  // rows_ is only ever keyed (never iterated), so pre-sizing cannot change
  // any reported value; it just avoids rehash churn on the write hot path.
  rows_.reserve(1 << 12);
}

std::size_t WomStateTracker::slab_id(RowKey row) {
  std::uint32_t& id = rows_[row];
  if (id == 0) {
    gen_.resize(gen_.size() + lines_, static_cast<std::uint8_t>(
                                          erased_start_ ? 0 : kUnknownGen));
    at_limit_.push_back(0);
    id = static_cast<std::uint32_t>(at_limit_.size());
  }
  return id;
}

unsigned WomStateTracker::generation(RowKey row, unsigned line) const {
  assert(line < lines_);
  const std::uint32_t* id = rows_.find(row);
  if (id == nullptr) return erased_start_ ? 0 : kUnknownGen;
  return gen_slab(*id)[line];
}

WriteClass WomStateTracker::peek_write(RowKey row, unsigned line) const {
  const unsigned g = generation(row, line);
  return (g == kUnknownGen || g == t_) ? WriteClass::kAlpha
                                       : WriteClass::kResetOnly;
}

WomStateTracker::WriteRecord WomStateTracker::record_write(RowKey row,
                                                           unsigned line) {
  // Counted as codec time: this is the timing simulator's stand-in for the
  // per-line encode step (SimResult::phases.codec_ns).
  perf::ScopedCodecTimer codec_timer;
  assert(line < lines_);
  ++writes_;
  const std::size_t id = slab_id(row);
  std::uint8_t& g = gen_slab(id)[line];
  unsigned& at_limit = at_limit_[id - 1];
  if (g == kUnknownGen || g == t_) {
    // Alpha-write: re-initialize the codeword (SET) and store the data as a
    // fresh first write. Unknown lines are alpha too: an arbitrary array
    // state cannot be programmed with RESET pulses alone.
    ++alpha_writes_;
    const bool cold = g == kUnknownGen;
    if (cold) {
      ++cold_alpha_writes_;
    } else {
      --at_limit;
    }
    g = 1;
    if (t_ == 1) ++at_limit;  // with t=1, a fresh write is already at limit
    return {WriteClass::kAlpha, cold};
  }
  ++g;
  if (g == t_) ++at_limit;
  return {WriteClass::kResetOnly, false};
}

bool WomStateTracker::row_has_limit_lines(RowKey row) const {
  const std::uint32_t* id = rows_.find(row);
  return id != nullptr && at_limit_[*id - 1] > 0;
}

bool WomStateTracker::refresh(RowKey row) {
  const std::uint32_t* id = rows_.find(row);
  if (id == nullptr) return false;
  unsigned& at_limit = at_limit_[*id - 1];
  const bool useful = at_limit > 0;
  std::uint8_t* g = gen_slab(*id);
  for (unsigned l = 0; l < lines_; ++l) g[l] = 0;
  at_limit = 0;
  ++refreshes_;
  return useful;
}

}  // namespace wompcm
