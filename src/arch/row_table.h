// Per-row state of an Architecture: one slab store for the WOM write
// generations, the per-line cell wear and the fault model's line states.
//
// Encoding is per column (Section 3.1: "memory data is encoded in the unit
// of a column"), so each line of a row carries its own codeword and its
// own rewrite budget, and PCM-refresh re-initializes a whole row at once
// (Section 3.2). Wear and faults are per line too, so every fact the
// simulator keeps about a row is keyed by the same row key
// (Architecture::row_key_for; the WOM-cache arrays are keyed as banks
// after the main banks, so the two regions never collide). One hash index
// maps each row key to a 1-based slab id, and per id parallel slabs hold:
//   - per-line wear, always;
//   - per-line generations and the row's at-limit line count, when some
//     region of the composition is WOM-coded;
//   - per-line fault states, when the fault model is on.
// A write claims its row once and carries the id through the write path.
// Ids are stable, but a claim can grow the slabs: hold the id, not a
// pointer into a slab, across anything that may claim (a remap claims its
// spare).
//
// Generation semantics (t = the region code's rewrite limit):
//   unknown      : never written since power-on. The array state is
//                  arbitrary, so the first write needs SET pulses -> alpha.
//   gen 0        : erased by PCM-refresh; next write is RESET-only.
//   0 < gen < t  : in budget; next write is RESET-only.
//   gen == t     : at the rewrite limit; the next write is the alpha-write,
//                  which re-initializes the codeword and leaves it at gen 1.
// The inverted code makes this classification data independent, which is
// why the timing model needs no payloads. Sectioned codes (polar,
// time-space constrained) split a line into several codewords, but every
// write, remap and refresh moves all of them together, so they share the
// line's generation.
//
// Wear is expected pulses per cell (rates in pcm/endurance.h); the hottest
// line bounds the array lifetime.
#pragma once

#include <cstdint>
#include <vector>

#include "common/flat_map.h"
#include "common/types.h"

namespace wompcm {

class RowTable {
 public:
  static constexpr std::uint8_t kUnknownGen = 0xFF;

  struct WriteRecord {
    WriteClass cls = WriteClass::kResetOnly;
    bool cold = false;  // alpha on a never-touched line (not refreshable)
  };

  // `generations`: keep generation slabs (some region is WOM-coded);
  // `fault_states`: keep fault-state slabs (the fault model is on).
  RowTable(unsigned lines_per_row, bool generations, bool fault_states);

  // Rows claimed so far.
  std::size_t rows() const { return index_.size(); }
  // Hash lookups so far (claim() and find() count one each).
  std::uint64_t lookups() const { return lookups_; }

  // Slab id of row `key`, claiming its slabs on first use: untouched wear,
  // every line at `initial_gen` (kUnknownGen, or 0 for a region formatted
  // at boot), healthy fault states.
  std::uint32_t claim(RowKey key, std::uint8_t initial_gen = kUnknownGen);
  // Slab id of row `key`, or 0 when it was never claimed.
  std::uint32_t find(RowKey key) const;

  // ---- WOM generations (generation slabs only) ----

  // Records a write of `line` under a code of rewrite limit `t` and
  // returns its class.
  WriteRecord record_write(std::uint32_t id, unsigned line, unsigned t);
  // Generation of one line; kUnknownGen if never written nor refreshed.
  unsigned generation(std::uint32_t id, unsigned line) const {
    return gen_[slab(id) + line];
  }
  // True if any line of the row is at the rewrite limit (the row belongs
  // in the refresh row-address table).
  bool has_limit_lines(std::uint32_t id) const {
    return at_limit_[id - 1] > 0;
  }
  // PCM-refresh: pre-erases every line of the row so subsequent writes take
  // the RESET-only path. Returns true if the row had lines at the rewrite
  // limit (i.e. the refresh was useful).
  bool erase(std::uint32_t id);

  // ---- Cell wear ----

  void add_wear(std::uint32_t id, unsigned line, double pulses_per_cell) {
    bump(wear_[slab(id) + line], pulses_per_cell);
  }
  // Every line of the row, in line order (a refresh cycles the whole row).
  void add_row_wear(std::uint32_t id, double pulses_per_cell);
  // Accumulated wear of one line (0 for a line never touched).
  double line_wear(std::uint32_t id, unsigned line) const {
    const double w = wear_[slab(id) + line];
    return w == kUntouched ? 0.0 : w;
  }
  double total_wear() const { return total_; }
  double max_line_wear() const { return max_; }
  std::size_t touched_lines() const { return touched_; }
  double mean_line_wear() const {
    return touched_ == 0 ? 0.0 : total_ / static_cast<double>(touched_);
  }

  // ---- Fault states (fault-state slabs only) ----

  // The fault model's recorded state of one line (FaultModel::LineState).
  std::uint8_t& fault_state(std::uint32_t id, unsigned line) {
    return fault_[slab(id) + line];
  }

 private:
  // Sentinel for a line never written nor refreshed. Real wear is always
  // >= 0, and a first touch replaces the sentinel outright, so the stored
  // values (and every total/max/mean derived from them) are bit-identical
  // to a plain per-line accumulator starting at zero. touched_ counts
  // first touches.
  static constexpr double kUntouched = -1.0;

  // First element of row `id`'s slab in each per-line array.
  std::size_t slab(std::uint32_t id) const {
    return static_cast<std::size_t>(id - 1) * lines_;
  }

  void bump(double& w, double pulses) {
    if (w == kUntouched) {
      w = pulses;
      ++touched_;
    } else {
      w += pulses;
    }
    total_ += pulses;
    if (w > max_) max_ = w;
  }

  unsigned lines_;
  bool generations_;
  bool fault_states_;
  FlatMap64<std::uint32_t> index_;     // row key -> 1-based slab id
  std::vector<double> wear_;           // lines_ per id
  std::vector<std::uint8_t> gen_;      // lines_ per id (generations_)
  std::vector<std::uint32_t> at_limit_;  // per id: lines at generation t
  std::vector<std::uint8_t> fault_;    // lines_ per id (fault_states_)
  std::size_t touched_ = 0;
  double total_ = 0.0;
  double max_ = 0.0;
  mutable std::uint64_t lookups_ = 0;
};

}  // namespace wompcm
