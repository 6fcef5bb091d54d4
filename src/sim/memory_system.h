// MemorySystem: the event-stepped memory system behind one SimService
// (sim/service.h), over the per-channel memory controllers.
//
// Layering (trace side down):
//
//   trace -> SimService -> MemorySystem -> MemoryController (one per channel)
//                                            -> banks / bus / refresh / arch
//
// The memory system owns one Architecture, one SimStats sink, and N
// per-channel MemoryController instances sharing both, all stepped inline
// on the calling thread. It routes transactions by their decoded channel
// coordinate, answers back-pressure per channel (a saturated channel never
// stalls an idle sibling), folds the per-channel event streams into one
// next_event_after(), and publishes the unified end-of-run metrics.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "arch/arch.h"
#include "common/address.h"
#include "controller/controller.h"
#include "controller/transaction.h"
#include "stats/metrics.h"
#include "stats/stats.h"

namespace wompcm {

struct SimConfig;
struct SimResult;

class MemorySystem {
 public:
  // Builds the architecture for `cfg` and one controller per
  // cfg.geom.channels, each built from `cfg`.
  explicit MemorySystem(const SimConfig& cfg);

  std::string arch_name() const { return arch_.name(); }
  unsigned num_channels() const {
    return static_cast<unsigned>(channels_.size());
  }

  // Frontend back-pressure for the channel this address decodes to.
  bool can_accept(const DecodedAddr& dec) const;
  // Routes a demand transaction to its channel at its arrival instant:
  // tx.arrival is the instant of the next tick().
  void enqueue(const Transaction& tx);
  // Earliest future instant any channel could make progress (kNeverTick
  // when the whole system is quiescent).
  Tick next_event_after(Tick now);
  // Ticks the channel controllers with work due at `now` (monotone across
  // calls); the audit build checks each channel it skips.
  void tick(Tick now);
  bool drained() const;
  Tick last_completion() const;

  // Folds the recorded per-stream slice for `stream` (a nonzero
  // Transaction::stream tag) into `into`.
  void fold_stream(std::uint32_t stream, SimStats::StreamSlice& into) const;

  // End of run: publishes system totals (including "sim.end_time"), every
  // channel's breakdown and the architecture's scalars into `reg`; fills
  // result.stats and result.banks (global-resource order: main banks
  // first, then any cache arrays). The driver keeps ownership of the
  // injection counters and of result.collect().
  void finish(MetricsRegistry& reg, SimResult& result);

  MemoryController& channel(unsigned c) { return *channels_[c]; }
  const MemoryController& channel(unsigned c) const { return *channels_[c]; }
  const Architecture& arch() const { return arch_; }
  const SimStats& stats() const { return stats_; }

 private:
  Architecture arch_;
  SimStats stats_;
  std::vector<std::unique_ptr<MemoryController>> channels_;
};

}  // namespace wompcm
