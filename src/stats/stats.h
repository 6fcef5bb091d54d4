// Streaming statistics used across the simulator.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "common/types.h"
#include "stats/histogram.h"

namespace wompcm {

// Streaming min/max/mean over latency samples.
class LatencyStats {
 public:
  void add(Tick sample);

  std::uint64_t count() const { return count_; }
  Tick min() const { return count_ == 0 ? 0 : min_; }
  Tick max() const { return max_; }
  double sum() const { return sum_; }
  double mean() const {
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }

  void merge(const LatencyStats& o);

 private:
  std::uint64_t count_ = 0;
  Tick min_ = std::numeric_limits<Tick>::max();
  Tick max_ = 0;
  double sum_ = 0.0;
};

// A named bag of integer counters (architectural event counts).
class CounterSet {
 public:
  void inc(const std::string& name, std::uint64_t by = 1) { map_[name] += by; }
  std::uint64_t get(const std::string& name) const {
    const auto it = map_.find(name);
    return it == map_.end() ? 0 : it->second;
  }
  const std::map<std::string, std::uint64_t>& all() const { return map_; }
  void merge(const CounterSet& o);

  // Stable pointer to a counter for hot paths, so repeated increments skip
  // the name lookup (and any string allocation). std::map nodes never move,
  // so the pointer stays valid for the CounterSet's lifetime. Note this
  // inserts the counter (at zero) immediately — call on first use, not
  // up front, to keep never-hit counters out of reports.
  std::uint64_t* slot(const std::string& name) { return &map_[name]; }

 private:
  std::map<std::string, std::uint64_t> map_;
};

// Everything a simulation run reports.
struct SimStats {
  LatencyStats demand_read_latency;   // arrival -> data burst complete
  LatencyStats demand_write_latency;  // arrival -> cells programmed
  LatencyStats internal_write_latency;  // WCPCM victim write-backs
  Log2Histogram read_latency_hist;
  Log2Histogram write_latency_hist;
  CounterSet counters;

  // Per-stream latency slice for service sessions (sim/service.h). Indexed
  // by Transaction::stream - 1; stream 0 (the batch path) keeps no slice.
  // A slice is recorded *in addition to* the aggregate latencies above, so
  // tagging never changes the aggregate books.
  struct StreamSlice {
    LatencyStats read_latency;
    LatencyStats write_latency;
    std::uint64_t reads_forwarded = 0;  // completed from the write queue
    std::uint64_t tier_absorbed = 0;    // completed in the DRAM front tier
    void merge(const StreamSlice& o);
  };
  std::vector<StreamSlice> streams;

  // The slice for a nonzero stream tag, grown on demand. Growth allocates;
  // steady-state recording into an existing slice does not.
  StreamSlice& stream_slice(std::uint32_t stream) {
    if (streams.size() < stream) streams.resize(stream);
    return streams[stream - 1];
  }

  double read_hit_rate(const std::string& hits,
                       const std::string& misses) const;
};

}  // namespace wompcm
