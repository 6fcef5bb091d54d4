#include "arch/row_table.h"

#include <algorithm>
#include <cassert>

#include "common/perf.h"

namespace wompcm {

RowTable::RowTable(unsigned lines_per_row, bool generations,
                   bool fault_states)
    : lines_(lines_per_row),
      generations_(generations),
      fault_states_(fault_states) {
  assert(lines_ >= 1);
  // index_ is only ever keyed (never iterated), so pre-sizing cannot change
  // any reported value; it avoids rehash churn on the write hot path. The
  // size is chosen with the setup_s path-length scan: larger tables change
  // the heap layout that the benchmark's repeated setup sees.
  index_.reserve(1 << 12);
}

std::uint32_t RowTable::claim(RowKey key, std::uint8_t initial_gen) {
  ++lookups_;
  std::uint32_t& id = index_[key];
  if (id == 0) {
    wear_.resize(wear_.size() + lines_, kUntouched);
    if (generations_) {
      gen_.resize(gen_.size() + lines_, initial_gen);
      at_limit_.push_back(0);
    }
    if (fault_states_) fault_.resize(fault_.size() + lines_, 0);
    id = static_cast<std::uint32_t>(index_.size());
  }
  return id;
}

std::uint32_t RowTable::find(RowKey key) const {
  ++lookups_;
  const std::uint32_t* id = index_.find(key);
  return id == nullptr ? 0 : *id;
}

RowTable::WriteRecord RowTable::record_write(std::uint32_t id, unsigned line,
                                             unsigned t) {
  // Counted as codec time: this is the timing simulator's stand-in for the
  // per-line encode step (SimResult::phases.codec_ns).
  perf::ScopedCodecTimer codec_timer;
  assert(line < lines_);
  assert(t >= 1 && t < kUnknownGen);
  std::uint8_t& g = gen_[slab(id) + line];
  std::uint32_t& at_limit = at_limit_[id - 1];
  if (g == kUnknownGen || g == t) {
    // Alpha-write: re-initialize the codeword (SET) and store the data as a
    // fresh first write. Unknown lines are alpha too: an arbitrary array
    // state cannot be programmed with RESET pulses alone.
    const bool cold = g == kUnknownGen;
    if (!cold) --at_limit;
    g = 1;
    if (t == 1) ++at_limit;  // with t=1, a fresh write is already at limit
    return {WriteClass::kAlpha, cold};
  }
  ++g;
  if (g == t) ++at_limit;
  return {WriteClass::kResetOnly, false};
}

bool RowTable::erase(std::uint32_t id) {
  std::uint32_t& at_limit = at_limit_[id - 1];
  const bool useful = at_limit > 0;
  std::fill_n(gen_.begin() + static_cast<std::ptrdiff_t>(slab(id)), lines_,
              std::uint8_t{0});
  at_limit = 0;
  return useful;
}

void RowTable::add_row_wear(std::uint32_t id, double pulses_per_cell) {
  double* w = wear_.data() + slab(id);
  for (unsigned l = 0; l < lines_; ++l) bump(w[l], pulses_per_cell);
}

}  // namespace wompcm
