// Power-of-two latency histogram for latency distribution reporting.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"

namespace wompcm {

// Buckets samples by floor(log2(sample)): bucket b holds samples in
// [2^b, 2^(b+1)). Bucket 0 additionally holds samples of 0 and 1.
class Log2Histogram {
 public:
  static constexpr std::size_t kBuckets = 40;

  void add(Tick sample);

  std::uint64_t bucket(std::size_t b) const { return buckets_.at(b); }
  std::uint64_t total() const { return total_; }

  // Index of the highest non-empty bucket (0 if empty).
  std::size_t max_bucket() const;

  // Sample value below which `fraction` (0..1] of the samples fall,
  // resolved to bucket upper bounds.
  Tick percentile(double fraction) const;

  // Multi-line "[lo, hi) count" rendering of the non-empty range.
  std::string to_string() const;

 private:
  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t total_ = 0;
};

}  // namespace wompcm
