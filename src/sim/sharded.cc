#include "sim/sharded.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <utility>

#include "common/event_queue.h"
#include "common/perf.h"

namespace wompcm {

namespace {

inline void cpu_pause() {
#if defined(__x86_64__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

}  // namespace

// Adaptive wait for the next round: spin briefly (instants are usually
// microseconds apart), then yield, then sleep with a capped backoff so an
// idle worker costs nothing while the coordinator runs inline fast-paths
// — or while a long-lived service waits for client input between steps.
// Yielding early matters on oversubscribed machines (including a
// single-core host): the peer the waiter depends on may need this very
// CPU, and a full quantum of pure spinning would serialize every round at
// scheduler-tick granularity.
void ShardedBackend::wait_for_epoch(const Barrier& bar, std::uint64_t seen) {
  unsigned spins = 0;
  std::uint32_t sleep_us = 1;
  while (bar.epoch.load(std::memory_order_acquire) == seen) {
    ++spins;
    if (spins < 128) {
      cpu_pause();
    } else if (spins < 1024) {
      std::this_thread::yield();
    } else {
      std::this_thread::sleep_for(std::chrono::microseconds(sleep_us));
      sleep_us = std::min<std::uint32_t>(sleep_us * 2, 100);
    }
  }
}

// The coordinator's end-of-round wait: same spin-then-yield shape, but no
// sleep backoff — workers finish a round in bounded time, and the
// coordinator is on the critical path of every round.
void ShardedBackend::wait_for_done(const Barrier& bar, unsigned workers) {
  unsigned spins = 0;
  while (bar.done.load(std::memory_order_acquire) != workers) {
    if (++spins < 128) {
      cpu_pause();
    } else {
      std::this_thread::yield();
    }
  }
}

ShardedBackend::ShardedBackend(const SimConfig& cfg, unsigned jobs) {
  const unsigned channels = cfg.geom.channels;
  if (jobs < 2 || channels < 2) {
    throw std::invalid_argument(
        "ShardedBackend: needs jobs >= 2 and channels >= 2 (callers fall "
        "back to the serial path otherwise)");
  }
  executors_ = std::min(jobs, channels);
  dispatch_all_ = cfg.sched.scan_mode == ScanMode::kReference;

  // Build the lanes: per-channel replicas of the architecture, each wired
  // to a controller scoped to exactly that channel. Lane c's replica sees
  // only channel c's accesses, and every stochastic or order-sensitive
  // accounting stream is keyed per channel, so the union of the lanes'
  // books equals the one shared instance the serial backend keeps.
  lanes_.reserve(channels);
  for (unsigned c = 0; c < channels; ++c) {
    auto lane = std::make_unique<Lane>();
    lane->arch = make_architecture(cfg.arch, cfg.geom, cfg.timing, cfg.fault);
    lane->ctl =
        std::make_unique<MemoryController>(cfg, c, *lane->arch, lane->stats);
    lanes_.push_back(std::move(lane));
  }

  // Lane c belongs to executor c % executors; the coordinator (the thread
  // calling tick()) is executor 0, workers are 1..executors-1.
  const unsigned workers = executors_ - 1;
  pool_ = std::make_unique<ThreadPool>(workers);
  worker_codec_.reserve(workers);
  const bool dispatch_all = dispatch_all_;
  for (unsigned w = 1; w <= workers; ++w) {
    std::vector<MemoryController*> mine;
    for (unsigned c = w; c < channels; c += executors_) {
      mine.push_back(lanes_[c]->ctl.get());
    }
    worker_codec_.push_back(pool_->submit([this, dispatch_all,
                                           mine = std::move(mine)]() {
      // Report the codec time this worker's shards accumulate (it lands in
      // the pool thread's thread-local counter, invisible to the caller).
      const std::uint64_t codec_start = perf::codec_ns();
      std::uint64_t seen = 0;
      for (;;) {
        wait_for_epoch(bar_, seen);
        ++seen;
        if (bar_.stop.load(std::memory_order_acquire)) break;
        const Tick now = bar_.now.load(std::memory_order_relaxed);
        for (MemoryController* ctl : mine) {
          if (dispatch_all || ctl->pending_event() <= now) ctl->tick(now);
        }
        bar_.done.fetch_add(1, std::memory_order_release);
      }
      return perf::codec_ns() - codec_start;
    }));
  }
}

ShardedBackend::~ShardedBackend() { retire_workers(); }

void ShardedBackend::retire_workers() {
  if (retired_) return;
  retired_ = true;
  bar_.stop.store(true, std::memory_order_release);
  bar_.epoch.fetch_add(1, std::memory_order_release);
  for (auto& f : worker_codec_) worker_codec_ns_ += f.get();
  pool_.reset();
}

bool ShardedBackend::can_accept(const DecodedAddr& dec) const {
  return lanes_[dec.channel]->ctl->can_accept();
}

void ShardedBackend::enqueue(const Transaction& tx) {
  lanes_[tx.dec.channel]->ctl->enqueue(tx);
}

Tick ShardedBackend::next_event_after(Tick now) {
  Tick t = kNeverTick;
  for (const auto& lane : lanes_) {
    t = earliest(t, lane->ctl->next_event_after(now));
  }
  return t;
}

bool ShardedBackend::drained() const {
  for (const auto& lane : lanes_) {
    if (!lane->ctl->drained()) return false;
  }
  return true;
}

Tick ShardedBackend::last_completion() const {
  Tick t = 0;
  for (const auto& lane : lanes_) {
    t = std::max(t, lane->ctl->last_completion());
  }
  return t;
}

void ShardedBackend::tick(Tick now) {
  // Step the shards due at `now`. Most instants wake a single channel:
  // step it inline and skip the barrier round entirely (safe — every
  // prior worker write to the lane is ordered before the coordinator's
  // last `done` acquire, and this write before the next epoch release).
  const unsigned channels = num_channels();
  unsigned due = 0;
  unsigned only_due = 0;
  for (unsigned c = 0; c < channels; ++c) {
    if (dispatch_all_ || lanes_[c]->ctl->pending_event() <= now) {
      ++due;
      only_due = c;
    }
  }
  if (due == 0) return;
  if (due == 1) {
    lanes_[only_due]->ctl->tick(now);
    return;
  }
  bar_.now.store(now, std::memory_order_relaxed);
  bar_.done.store(0, std::memory_order_relaxed);
  bar_.epoch.fetch_add(1, std::memory_order_release);
  for (unsigned c = 0; c < channels; c += executors_) {
    if (dispatch_all_ || lanes_[c]->ctl->pending_event() <= now) {
      lanes_[c]->ctl->tick(now);
    }
  }
  wait_for_done(bar_, executors_ - 1);
}

void ShardedBackend::fold_stream(std::uint32_t stream,
                                 SimStats::StreamSlice& into) const {
  if (stream == 0) return;
  for (const auto& lane : lanes_) {
    if (stream <= lane->stats.streams.size()) {
      into.merge(lane->stats.streams[stream - 1]);
    }
  }
}

void ShardedBackend::finish(MetricsRegistry& reg, SimResult& result) {
  // Retire the workers first: after this the lanes are exclusively ours.
  retire_workers();

  // Fold the lanes back, in channel order, into the books the serial
  // backend keeps: publish the same registry entries, merge the
  // architecture replicas into replica 0, and merge the per-lane stats
  // sinks.
  const unsigned channels = num_channels();
  reg.set_counter("sim.end_time", last_completion());
  for (const auto& lane : lanes_) lane->ctl->publish_metrics(reg);
  for (unsigned c = 1; c < channels; ++c) {
    lanes_[0]->arch->merge_accounting_from(*lanes_[c]->arch);
  }
  lanes_[0]->arch->publish_metrics(reg, last_completion());

  for (const auto& lane : lanes_) result.stats.merge_from(lane->stats);
  result.stats.counters.merge(lanes_[0]->arch->counters());

  const Architecture& arch0 = *lanes_[0]->arch;
  result.banks.reserve(arch0.num_resources());
  for (unsigned r = 0; r < arch0.num_resources(); ++r) {
    const Bank& b = lanes_[arch0.resource_channel(r)]->ctl->bank(r);
    result.banks.push_back(SimResult::BankUtilization{
        b.busy_time(), b.ops(), b.row_hits(), b.pauses(),
        arch0.is_cache_resource(r)});
  }
}

}  // namespace wompcm
