// MemorySystem: the facade over the per-channel memory controllers.
//
// Layering (trace side down):
//
//   trace -> Simulator -> MemorySystem -> MemoryController (one per channel)
//                                           -> banks / bus / refresh / arch
//
// The facade owns N per-channel MemoryController instances sharing one
// Architecture and one SimStats sink. It routes transactions by their
// decoded channel coordinate, answers back-pressure per channel (a
// saturated channel never stalls an idle sibling), folds the per-channel
// event streams into one next_event_after(), and publishes/collects the
// unified end-of-run metrics.
#pragma once

#include <memory>
#include <vector>

#include "arch/arch.h"
#include "controller/controller.h"
#include "pcm/bank.h"
#include "stats/metrics.h"
#include "stats/stats.h"

namespace wompcm {

class MemorySystem {
 public:
  // One controller per cfg.geom.channels, each built from `cfg`.
  MemorySystem(const ControllerConfig& cfg, Architecture& arch,
               SimStats& stats);

  unsigned num_channels() const {
    return static_cast<unsigned>(channels_.size());
  }

  // Frontend back-pressure for the channel this address decodes to.
  bool can_accept(const DecodedAddr& dec) const;

  // Routes a demand transaction to its channel's controller.
  void enqueue(const Transaction& tx);

  // Earliest future instant any channel could make progress (kNeverTick
  // when the whole system is quiescent).
  Tick next_event_after(Tick now);

  // Ticks the channel controllers with work due at `now` (every controller
  // in reference scan mode; monotone across calls).
  void tick(Tick now);

  bool drained() const;
  Tick last_completion() const;

  MemoryController& channel(unsigned c) { return *channels_[c]; }
  const MemoryController& channel(unsigned c) const { return *channels_[c]; }

  // Per bank-like resource snapshot, in global-resource order (main banks
  // first, then any cache arrays) — identical ordering to the pre-facade
  // single controller.
  struct BankSnapshot {
    const Bank* bank = nullptr;
    bool is_cache = false;
  };
  std::vector<BankSnapshot> banks() const;

  // Publishes system totals and every channel's breakdown into `reg`.
  void publish_metrics(MetricsRegistry& reg) const;

 private:
  Architecture& arch_;
  // Reference scan mode dispatches every tick to every channel instead of
  // only the channels with a due event (see ScanMode).
  bool dispatch_all_ = false;
  std::vector<std::unique_ptr<MemoryController>> channels_;
};

}  // namespace wompcm
