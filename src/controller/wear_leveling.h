// Start-Gap wear leveling (Qureshi et al., MICRO 2009).
//
// The paper leaves endurance open; Start-Gap is the standard low-cost
// remedy and slots naturally under the WOM architectures, so we provide it
// as an optional per-bank remapping layer. One spare (gap) row per bank
// rotates through the array: every `interval` writes the row above the gap
// is copied into it and the gap moves up; after a full sweep the start
// pointer advances, so every logical row slowly migrates over all physical
// rows and write-hot rows stop camping on fixed cells.
//
// Mapping (N logical rows, N+1 physical):
//   physical = (logical + start) % N;  if (physical >= gap) physical += 1
// A gap move costs one row copy (row read + row write) in the bank.
#pragma once

#include <cstdint>
#include <string>

namespace wompcm {

class StartGapRemapper {
 public:
  // `rows` logical rows; a gap move happens every `interval` (>= 1) writes.
  StartGapRemapper(unsigned rows, unsigned interval);

  // Physical row currently backing `logical_row` (< rows). The result is in
  // [0, rows]: the array owns one spare row.
  unsigned remap(unsigned logical_row) const;

  // Records one write to the bank. Returns true when this write triggers a
  // gap move (the caller charges the row-copy latency).
  bool on_write();

  unsigned rows() const { return rows_; }
  unsigned start() const { return start_; }
  unsigned gap() const { return gap_; }
  std::uint64_t gap_moves() const { return moves_; }

 private:
  unsigned rows_;
  unsigned interval_;
  unsigned start_ = 0;
  unsigned gap_;  // starts past the last row
  unsigned writes_since_move_ = 0;
  std::uint64_t moves_ = 0;
};

}  // namespace wompcm
