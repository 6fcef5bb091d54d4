#include "sim/memory_system.h"

#include "common/event_queue.h"
#include "sim/simulator.h"

namespace wompcm {

MemorySystem::MemorySystem(const SimConfig& cfg)
    : arch_(cfg.geom, cfg.timing, cfg.arch, cfg.fault) {
  channels_.reserve(cfg.geom.channels);
  for (unsigned c = 0; c < cfg.geom.channels; ++c) {
    channels_.push_back(
        std::make_unique<MemoryController>(cfg, c, arch_, stats_));
  }
}

bool MemorySystem::can_accept(const DecodedAddr& dec) const {
  return channels_[dec.channel]->can_accept();
}

void MemorySystem::enqueue(const Transaction& tx) {
  channels_[tx.dec.channel]->enqueue(tx);
}

Tick MemorySystem::next_event_after(Tick now) {
  Tick t = kNeverTick;
  for (const auto& c : channels_) t = earliest(t, c->next_event_after(now));
  return t;
}

void MemorySystem::tick(Tick now) {
  // Controllers are quiescent between their own scheduled events (every
  // instant at which a channel could issue or run a refresh check has a
  // pushed event; see MemoryController), so a channel with nothing due at
  // `now` would tick to no effect: skip it.
  for (const auto& c : channels_) {
    if (c->pending_event() <= now) {
      c->tick(now);
#ifdef WOMPCM_AUDIT
    } else {
      c->audit_skipped(now);
#endif
    }
  }
}

bool MemorySystem::drained() const {
  for (const auto& c : channels_) {
    if (!c->drained()) return false;
  }
  return true;
}

Tick MemorySystem::last_completion() const {
  Tick t = 0;
  for (const auto& c : channels_) {
    if (c->last_completion() > t) t = c->last_completion();
  }
  return t;
}

void MemorySystem::fold_stream(std::uint32_t stream,
                               SimStats::StreamSlice& into) const {
  if (stream != 0 && stream <= stats_.streams.size()) {
    into.merge(stats_.streams[stream - 1]);
  }
}

void MemorySystem::finish(MetricsRegistry& reg, SimResult& result) {
  reg.set_counter("sim.end_time", last_completion());
  for (const auto& c : channels_) c->publish_metrics(reg);
  arch_.publish_metrics(reg, last_completion());
  result.stats = stats_;
  result.stats.counters.merge(arch_.counters());
  const unsigned total = arch_.num_resources();
  result.banks.reserve(total);
  for (unsigned r = 0; r < total; ++r) {
    const Bank& b = channels_[arch_.resource_channel(r)]->bank(r);
    result.banks.push_back(SimResult::BankUtilization{
        b.busy_time(), b.ops(), b.row_hits(), b.pauses(),
        arch_.is_cache_resource(r)});
  }
}

}  // namespace wompcm
