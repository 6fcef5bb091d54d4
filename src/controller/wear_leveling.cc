#include "controller/wear_leveling.h"

#include <cassert>

namespace wompcm {

StartGapRemapper::StartGapRemapper(unsigned rows, unsigned interval)
    : rows_(rows), interval_(interval), gap_(rows) {
  assert(rows_ >= 1 && interval_ >= 1);
}

unsigned StartGapRemapper::remap(unsigned logical_row) const {
  assert(logical_row < rows_);
  unsigned physical = (logical_row + start_) % rows_;
  if (physical >= gap_) ++physical;
  return physical;
}

bool StartGapRemapper::on_write() {
  if (++writes_since_move_ < interval_) return false;
  writes_since_move_ = 0;
  ++moves_;
  if (gap_ == 0) {
    // The gap wrapped: the whole array has shifted by one row.
    gap_ = rows_;
    start_ = (start_ + 1) % rows_;
  } else {
    --gap_;
  }
  return true;
}

}  // namespace wompcm
