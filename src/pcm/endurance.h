// PCM cell-wear accounting.
//
// The paper explicitly leaves endurance open ("their impact on the
// endurance of PCM is not explicitly addressed"); this tracker quantifies
// it. Every programming pulse cycles the chalcogenide; a PCM cell survives
// on the order of 1e8 SET/RESET cycles. We track expected pulses *per cell*
// at line granularity:
//   - a RESET-only (WOM fast-path) write flips about half the coded cells:
//     0.5 pulses/cell;
//   - an alpha/conventional write erases and reprograms: ~1.0 pulses/cell;
//   - a PCM-refresh re-initializes a row: ~0.5 pulses/cell on every line.
// The hottest line bounds the array lifetime (without wear leveling).
#pragma once

#include <cstdint>
#include <vector>

#include "common/flat_map.h"
#include "common/types.h"

namespace wompcm {

inline constexpr double kResetOnlyWearPerCell = 0.5;
inline constexpr double kAlphaWearPerCell = 1.0;
inline constexpr double kRefreshWearPerCell = 0.5;

// Typical PCM endurance (cycles per cell) used by the lifetime estimate.
inline constexpr double kDefaultCellEndurance = 1e8;

class WearTracker {
 public:
  explicit WearTracker(unsigned lines_per_row) : lines_(lines_per_row) {
    // The row index is only ever keyed (never iterated), so pre-sizing
    // cannot change any reported value; it just avoids rehash churn on the
    // per-write hot path.
    slab_of_.reserve(1 << 14);
  }

  void on_write(RowKey row, unsigned line, WriteClass cls) {
    add(row, line,
        cls == WriteClass::kResetOnly ? kResetOnlyWearPerCell
                                      : kAlphaWearPerCell);
  }

  // A refresh cycles every line of the row. The row's lines live in one
  // contiguous slab, so this is one hash probe plus a sequential walk
  // instead of lines_per_row independent lookups.
  void on_refresh(RowKey row) {
    double* s = slab(row);
    for (unsigned l = 0; l < lines_; ++l) bump(s[l], kRefreshWearPerCell);
  }

  // Explicit pulse count for schemes with their own write model
  // (e.g. Flip-N-Write's at-most-half-the-bits guarantee).
  void on_write_pulses(RowKey row, unsigned line, double pulses_per_cell) {
    add(row, line, pulses_per_cell);
  }

  double total_wear() const { return total_; }
  double max_line_wear() const { return max_; }

  // Accumulated wear of one line (0 for a line never touched). Const and
  // allocation-free: safe on the fault model's per-write classification path.
  double line_wear(RowKey row, unsigned line) const {
    const std::uint32_t* id = slab_of_.find(row);
    if (id == nullptr || *id == 0) return 0.0;
    const double w =
        wear_[static_cast<std::size_t>(*id - 1) * lines_ + line];
    return w == kUntouched ? 0.0 : w;
  }

  std::size_t touched_lines() const { return touched_; }
  double mean_line_wear() const {
    return touched_ == 0 ? 0.0 : total_ / static_cast<double>(touched_);
  }

  // Lifetime until the hottest line exhausts `cell_endurance` cycles, if
  // the observed wear rate over `elapsed_ns` continues. Returns +inf when
  // nothing wore.
  double lifetime_seconds(Tick elapsed_ns,
                          double cell_endurance = kDefaultCellEndurance) const;
  double lifetime_years(Tick elapsed_ns,
                        double cell_endurance = kDefaultCellEndurance) const {
    return lifetime_seconds(elapsed_ns, cell_endurance) / (365.25 * 86400.0);
  }

 private:
  // Sentinel for a line never written nor refreshed. Real wear is always
  // >= 0, and a first touch replaces the sentinel outright, so the stored
  // values (and every total/max/mean derived from them) are bit-identical
  // to a plain per-line accumulator starting at zero. touched_ counts
  // first touches, matching the per-(row,line) key count a map would hold.
  static constexpr double kUntouched = -1.0;

  // The row's wear slab (lines_ doubles), allocated on first touch. The
  // returned pointer is invalidated by the next slab allocation.
  double* slab(RowKey row) {
    std::uint32_t& id = slab_of_[row];
    if (id == 0) {  // 1-based so the map's default 0 means "no slab yet"
      wear_.resize(wear_.size() + lines_, kUntouched);
      id = static_cast<std::uint32_t>(wear_.size() / lines_);
    }
    return wear_.data() + static_cast<std::size_t>(id - 1) * lines_;
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

  void add(RowKey row, unsigned line, double pulses) {
    bump(slab(row)[line], pulses);
  }

  unsigned lines_;
  FlatMap64<std::uint32_t> slab_of_;  // row key -> 1-based slab id
  std::vector<double> wear_;          // slabs of lines_ per-line totals
  std::size_t touched_ = 0;
  double total_ = 0.0;
  double max_ = 0.0;
};

}  // namespace wompcm
