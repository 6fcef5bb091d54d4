// Seeded cell-failure model: the endurance story made an active event.
//
// The row table (arch/row_table.h) passively accounts pulses per cell;
// this model lets lines actually fail. Each coded line draws an endurance
// budget from a lognormal centered on a configurable median (process
// variation: some lines die orders of magnitude earlier than the spec
// sheet), and once its accumulated wear crosses that budget the line
// develops stuck-at cells:
//
//   healthy  -> degraded : stuck bits break the monotone 0->1 WOM rewrite,
//                          so the controller demotes fast-path writes to
//                          full alpha re-programs and write-verifies with
//                          bounded retry;
//   degraded -> dead     : verify can never pass; the controller retires
//                          the whole row to a spare (controller/remap_table)
//                          or, for a WOM-cache row, retires and
//                          bypasses it.
//
// Determinism contract: every draw is a pure function of the fault seed.
// Per-line endurance uses a stateless hash of the line's identity, so it is
// independent of access order; per-event draws (verify retries, transient
// read disturb) use one sequential event counter *per channel*, which is
// reproducible because each channel controller's issue order is itself
// deterministic. Keying the stream by channel — rather than one global
// counter — makes the draws independent of cross-channel interleaving;
// the registry corpus pins the resulting faults. Channel 0's stream is the
// legacy global stream, so single-channel runs are unchanged. Two runs
// with the same seed — alone or inside a jobs=N sweep — observe identical
// faults.
//
// The model keeps no per-line state of its own: each line's sticky state
// is a byte in the caller's row table, passed to observe_write().
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"
#include "pcm/endurance.h"

namespace wompcm {

// A dead line's wear has overshot its endurance budget by this factor
// (between the first stuck bits and enough of them to defeat verify).
inline constexpr double kDeadWearFactor = 1.5;

struct FaultConfig {
  bool enabled = false;
  // Seed of the fault universe: which lines are weak, how verify retries
  // bounce, when reads disturb. Independent of the trace seed.
  std::uint64_t seed = 1;
  // Lognormal median of the per-line endurance budget (pulses per cell).
  double endurance = kDefaultCellEndurance;
  // Lognormal sigma of the per-line draw (0 = every line identical).
  double sigma = 0.25;
  // Fraction of the median endurance already consumed before the run: the
  // "simulate a worn array" axis (0.9 = 90% through its life). Spare rows
  // and the Start-Gap spare are fresh stock and start at zero.
  double initial_wear = 0.0;
  // Write-verify retry bound per faulty-line write (>= 1).
  unsigned max_retries = 3;
  // Spare rows per main bank available for retiring dead rows.
  unsigned spare_rows = 64;
  // Per-read probability of a transient read-disturb error (re-read cost).
  double read_disturb = 0.0;

  bool valid(std::string* why = nullptr) const;
};

class FaultModel {
 public:
  enum class LineState : std::uint8_t { kHealthy = 0, kDegraded = 1, kDead = 2 };

  struct Observation {
    LineState state = LineState::kHealthy;
    LineState previous = LineState::kHealthy;
    bool transitioned = false;  // state advanced on this observation
  };

  // `channels` sizes the per-channel event-draw streams (see the
  // determinism contract above); callers drawing without a channel use
  // stream 0, which is the legacy global stream.
  FaultModel(const FaultConfig& cfg, unsigned lines_per_row,
             unsigned channels = 1);

  // Deterministic per-line endurance budget (pulses per cell): a pure
  // function of (seed, row, line), independent of access order.
  double line_endurance(RowKey row, unsigned line) const;

  // Classifies the line given its tracked wear and advances its sticky
  // state `recorded` (a LineState byte, kHealthy for a line never
  // observed). `pre_aged` marks lines that carry the configured initial
  // wear (original array rows); spares are fresh. States only ever advance.
  Observation observe_write(RowKey row, unsigned line, double wear,
                            bool pre_aged, std::uint8_t& recorded);

  // Verify retries consumed by a write to a degraded line, in
  // [1, max_retries]. Sequential-event draw on `channel`'s stream.
  unsigned retry_draw(unsigned channel = 0);

  // One transient read-disturb Bernoulli draw. Sequential-event draw on
  // `channel`'s stream.
  bool read_disturbed(unsigned channel = 0);

  const FaultConfig& config() const { return cfg_; }

 private:
  std::uint64_t line_key(RowKey row, unsigned line) const {
    return row * lines_ + line;
  }
  LineState classify(RowKey row, unsigned line, double wear,
                     bool pre_aged) const;
  std::uint64_t next_event_hash(unsigned channel);

  FaultConfig cfg_;
  unsigned lines_;
  std::vector<std::uint64_t> events_;  // per-channel event-draw counters
};

}  // namespace wompcm
