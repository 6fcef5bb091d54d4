// Multi-programmed workload mixing.
//
// Merges several trace sources into one stream ordered by arrival time —
// the memory controller's view of a multicore running one benchmark per
// core. Each component keeps its own timing; the mix interleaves them
// exactly (a merge by absolute arrival), so rank/bank interference between
// the programs emerges naturally in the simulator.
#pragma once

#include <memory>
#include <queue>
#include <vector>

#include "trace/trace.h"

namespace wompcm {

class MixTraceSource final : public TraceSource {
 public:
  // Takes ownership of the component sources. At least one is required.
  explicit MixTraceSource(std::vector<std::unique_ptr<TraceSource>> sources);

  std::size_t next_block(TraceRecord* out, std::size_t max) override;

  // How many records each component contributed so far.
  const std::vector<std::uint64_t>& contributed() const {
    return contributed_;
  }

 private:
  struct Head {
    Tick time;         // absolute arrival of the pending record
    std::size_t src;   // component index
    TraceRecord rec;

    bool operator>(const Head& o) const {
      return time != o.time ? time > o.time : src > o.src;
    }
  };

  void refill(std::size_t src);

  std::vector<std::unique_ptr<TraceSource>> sources_;
  std::vector<Tick> clocks_;  // per-component absolute time
  std::vector<std::uint64_t> contributed_;
  std::priority_queue<Head, std::vector<Head>, std::greater<Head>> heads_;
  Tick last_emitted_ = 0;
  bool primed_ = false;
};

}  // namespace wompcm
