#include "stats/stats.h"

namespace wompcm {

void LatencyStats::add(Tick sample) {
  ++count_;
  sum_ += static_cast<double>(sample);
  if (sample < min_) min_ = sample;
  if (sample > max_) max_ = sample;
}

void LatencyStats::merge(const LatencyStats& o) {
  if (o.count_ == 0) return;
  count_ += o.count_;
  sum_ += o.sum_;
  if (o.min_ < min_) min_ = o.min_;
  if (o.max_ > max_) max_ = o.max_;
}

void CounterSet::merge(const CounterSet& o) {
  for (const auto& [k, v] : o.all()) map_[k] += v;
}

void SimStats::StreamSlice::merge(const StreamSlice& o) {
  read_latency.merge(o.read_latency);
  write_latency.merge(o.write_latency);
  reads_forwarded += o.reads_forwarded;
  tier_absorbed += o.tier_absorbed;
}

double SimStats::read_hit_rate(const std::string& hits,
                               const std::string& misses) const {
  const auto h = counters.get(hits);
  const auto m = counters.get(misses);
  if (h + m == 0) return 0.0;
  return static_cast<double>(h) / static_cast<double>(h + m);
}

}  // namespace wompcm
