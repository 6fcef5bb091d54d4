// The PCM-refresh engine (Section 3.2), one instance per channel.
//
// Every refresh_period_ns the owning controller scans its channel's ranks
// round-robin and picks the first rank whose pending-alpha-row fraction
// meets the r_th threshold and that has idle refresh units. It then issues
// one burst-mode refresh command: the architecture pops pending rows from
// its row address tables (one per idle bank for rank-wide WOM PCM, up to a
// RAT's worth for a WOM-cache array) and the participating units are
// occupied for t_WR + rows * L_burst/2. Demand accesses arriving
// mid-refresh preempt it at a small pause penalty (write pausing).
#pragma once

#include "arch/arch.h"
#include "common/function_ref.h"
#include "pcm/bank.h"

namespace wompcm {

struct RefreshConfig {
  bool enabled = true;
  // r_th: minimum fraction of a rank's banks that must have at least one
  // pending row for the rank to be selected (0 = any pending work).
  double threshold = 0.0;
  bool write_pausing = true;
  // If true, a unit is only refresh-ready when no queued demand targets it
  // (stricter idleness; write pausing makes the default cheap enough).
  bool require_empty_queues = false;
};

class RefreshEngine {
 public:
  // Maps a global bank-like resource index (as used by Architecture) to
  // the owning controller's bank state.
  using BankResolver = FunctionRef<Bank&(unsigned)>;
  using UnitReady = FunctionRef<bool(unsigned)>;

  RefreshEngine(const RefreshConfig& cfg, const PcmTiming& timing,
                const MemoryGeometry& geom, unsigned channel);

  bool active(const Architecture& arch) const {
    return cfg_.enabled && arch.refresh_enabled();
  }
  bool write_pausing() const { return cfg_.enabled && cfg_.write_pausing; }
  const RefreshConfig& config() const { return cfg_; }
  unsigned channel() const { return channel_; }

  // Next periodic check time (kNeverTick once disabled).
  Tick next_check() const { return next_check_; }

  // Runs the checks due at or before `now`. `unit_ready(resource)` must
  // report whether that bank-like unit can stream a refresh right now.
  // Returns the completion time of a refresh issued at `now` (or 0).
  Tick run(Tick now, Architecture& arch, BankResolver bank_of,
           UnitReady unit_ready);

  std::uint64_t commands() const { return commands_; }
  std::uint64_t rows_refreshed() const { return rows_; }

 private:
  // One scan over this channel's ranks: returns completion time if a
  // command was issued, else 0.
  Tick scan(Tick now, Architecture& arch, BankResolver bank_of,
            UnitReady unit_ready);

  RefreshConfig cfg_;
  PcmTiming timing_;
  MemoryGeometry geom_;
  unsigned channel_;
  Tick next_check_;
  unsigned cursor_ = 0;  // round-robin over this channel's ranks
  std::uint64_t commands_ = 0;
  std::uint64_t rows_ = 0;
};

}  // namespace wompcm
