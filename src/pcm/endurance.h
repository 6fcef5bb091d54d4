// PCM cell-wear rates and the lifetime projection.
//
// The paper explicitly leaves endurance open ("their impact on the
// endurance of PCM is not explicitly addressed"); the simulator quantifies
// it. Every programming pulse cycles the chalcogenide; a PCM cell survives
// on the order of 1e8 SET/RESET cycles. Wear is tracked as expected pulses
// *per cell* at line granularity (arch/row_table.h):
//   - a RESET-only (WOM fast-path) write flips about half the coded cells:
//     0.5 pulses/cell;
//   - an alpha/conventional write erases and reprograms: ~1.0 pulses/cell;
//   - a PCM-refresh re-initializes a row: ~0.5 pulses/cell on every line.
// The hottest line bounds the array lifetime (without wear leveling).
#pragma once

#include <limits>

#include "common/types.h"

namespace wompcm {

inline constexpr double kResetOnlyWearPerCell = 0.5;
inline constexpr double kAlphaWearPerCell = 1.0;
inline constexpr double kRefreshWearPerCell = 0.5;

// Typical PCM endurance (cycles per cell) used by the lifetime estimate.
inline constexpr double kDefaultCellEndurance = 1e8;

// Lifetime until the hottest line (`max_line_wear` pulses per cell after
// `elapsed_ns`) exhausts `cell_endurance` cycles, if its wear rate
// continues. Returns +inf when nothing wore.
inline double lifetime_seconds(double max_line_wear, Tick elapsed_ns,
                               double cell_endurance = kDefaultCellEndurance) {
  if (max_line_wear <= 0.0 || elapsed_ns == 0) {
    return std::numeric_limits<double>::infinity();
  }
  const double elapsed_s = static_cast<double>(elapsed_ns) * 1e-9;
  const double wear_rate = max_line_wear / elapsed_s;  // cycles/second
  return cell_endurance / wear_rate;
}

inline double lifetime_years(double max_line_wear, Tick elapsed_ns,
                             double cell_endurance = kDefaultCellEndurance) {
  return lifetime_seconds(max_line_wear, elapsed_ns, cell_endurance) /
         (365.25 * 86400.0);
}

}  // namespace wompcm
