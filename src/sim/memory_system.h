// MemorySystem: the serial execution backend over the per-channel memory
// controllers.
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
#include "controller/controller.h"
#include "sim/backend.h"
#include "stats/metrics.h"
#include "stats/stats.h"

namespace wompcm {

class MemorySystem final : public SimBackend {
 public:
  // Builds the architecture for `cfg` and one controller per
  // cfg.geom.channels, each built from `cfg`.
  explicit MemorySystem(const SimConfig& cfg);

  std::string arch_name() const override { return arch_->name(); }
  unsigned num_channels() const override {
    return static_cast<unsigned>(channels_.size());
  }

  bool can_accept(const DecodedAddr& dec) const override;
  void enqueue(const Transaction& tx) override;
  Tick next_event_after(Tick now) override;
  // Ticks the channel controllers with work due at `now` (every controller
  // in reference scan mode; monotone across calls).
  void tick(Tick now) override;
  bool drained() const override;
  Tick last_completion() const override;

  void fold_stream(std::uint32_t stream,
                   SimStats::StreamSlice& into) const override;

  // Publishes system totals, every channel's breakdown and the
  // architecture's scalars into `reg`; fills result.stats and result.banks
  // (global-resource order: main banks first, then any cache arrays).
  void finish(MetricsRegistry& reg, SimResult& result) override;

  MemoryController& channel(unsigned c) { return *channels_[c]; }
  const MemoryController& channel(unsigned c) const { return *channels_[c]; }
  const Architecture& arch() const { return *arch_; }
  const SimStats& stats() const { return stats_; }

 private:
  std::unique_ptr<Architecture> arch_;
  SimStats stats_;
  // Reference scan mode dispatches every tick to every channel instead of
  // only the channels with a due event (see ScanMode).
  bool dispatch_all_ = false;
  std::vector<std::unique_ptr<MemoryController>> channels_;
};

}  // namespace wompcm
