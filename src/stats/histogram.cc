#include "stats/histogram.h"

#include <bit>
#include <sstream>

namespace wompcm {

void Log2Histogram::add(Tick sample) {
  std::size_t b = 0;
  if (sample >= 2) {
    b = static_cast<std::size_t>(63 - std::countl_zero(sample));
  }
  if (b >= kBuckets) b = kBuckets - 1;
  ++buckets_[b];
  ++total_;
}

std::size_t Log2Histogram::max_bucket() const {
  for (std::size_t b = kBuckets; b-- > 0;) {
    if (buckets_[b] != 0) return b;
  }
  return 0;
}

Tick Log2Histogram::percentile(double fraction) const {
  if (total_ == 0) return 0;
  if (fraction < 0.0) fraction = 0.0;
  if (fraction > 1.0) fraction = 1.0;
  const double target = fraction * static_cast<double>(total_);
  double seen = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    seen += static_cast<double>(buckets_[b]);
    if (seen >= target) return Tick{1} << (b + 1);
  }
  return Tick{1} << kBuckets;
}

std::string Log2Histogram::to_string() const {
  std::ostringstream os;
  const std::size_t hi = max_bucket();
  for (std::size_t b = 0; b <= hi; ++b) {
    if (buckets_[b] == 0) continue;
    os << "[" << (b == 0 ? 0 : (Tick{1} << b)) << ", " << (Tick{1} << (b + 1))
       << ") " << buckets_[b] << "\n";
  }
  return os.str();
}

}  // namespace wompcm
