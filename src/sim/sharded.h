// Sharded single-run execution: one worker thread per channel group.
//
// ShardedBackend executes one trace-driven run with each channel's
// controller stepped on its own executor, synchronized by a deterministic
// cross-channel time barrier:
//
//   1. advance all channels to the global next-event time,
//   2. inject the arrivals due at that instant in trace order,
//   3. step the due channel shards concurrently.
//
// The driving loop (SimService, sim/service.h) stays serial: clock
// advance, trace fetch/decode, and injection all happen on the calling
// thread, in trace order, so the sequence of (instant, injected
// transactions, due channels) is identical to the serial backend by
// construction. Only step 3 fans out: each lane owns a private
// MemoryController, Architecture replica, and SimStats sink, and every
// cross-channel accounting stream (energy buckets, fault event draws,
// Flip-N-Write RNGs) is already keyed per channel, so stepping the shards
// concurrently and folding the lanes back in channel order at finish()
// reproduces the serial books bit for bit. See DESIGN.md "Sharded
// execution & the time barrier" for the full argument.
//
// Synchronization is a gang barrier over three atomics (round epoch, done
// count, shared now); every lane-state handoff between executors rides an
// acquire/release pair on them, so the backend is clean under TSan. The
// workers persist across tick() calls — a long-lived service steps the
// same gang for its whole lifetime — and are retired by finish() (or the
// destructor, if a run is abandoned).
//
// Built only by make_backend() (sim/backend.h), which owns the
// serial-fallback rule; with a single channel there is nothing to shard.
#pragma once

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "controller/controller.h"
#include "sim/backend.h"
#include "sim/simulator.h"

namespace wompcm {

class ShardedBackend final : public SimBackend {
 public:
  // Spins up min(jobs, cfg.geom.channels) executors (this thread plus
  // jobs - 1 pool workers). Requires jobs >= 2 and cfg.geom.channels >= 2.
  ShardedBackend(const SimConfig& cfg, unsigned jobs);
  ~ShardedBackend() override;

  std::string arch_name() const override {
    return lanes_[0]->arch->name();
  }
  unsigned num_channels() const override {
    return static_cast<unsigned>(lanes_.size());
  }

  bool can_accept(const DecodedAddr& dec) const override;
  void enqueue(const Transaction& tx) override;
  Tick next_event_after(Tick now) override;
  void tick(Tick now) override;
  bool drained() const override;
  Tick last_completion() const override;

  void fold_stream(std::uint32_t stream,
                   SimStats::StreamSlice& into) const override;

  void finish(MetricsRegistry& reg, SimResult& result) override;

 private:
  // One channel's shard: a private controller, architecture replica, and
  // stats sink. Replica c only ever services channel c, so the lanes share
  // no mutable state — the barrier below is the only synchronization.
  struct Lane {
    std::unique_ptr<Architecture> arch;
    SimStats stats;
    std::unique_ptr<MemoryController> ctl;
  };

  // The gang barrier. A round is: coordinator publishes `now` and bumps
  // `epoch` (release); each worker acquires the bump, steps its due lanes,
  // and bumps `done` (release); the coordinator spins on `done` (acquire).
  // Those two edges carry every lane-state handoff: anything an executor
  // wrote to a lane before its release is visible to whichever executor
  // touches that lane after the matching acquire — which is also why the
  // coordinator may step a worker-owned lane inline between rounds, and
  // why the service may read lane stats between ticks.
  struct Barrier {
    std::atomic<std::uint64_t> epoch{0};
    std::atomic<unsigned> done{0};
    std::atomic<Tick> now{0};
    std::atomic<bool> stop{false};
  };

  static void wait_for_epoch(const Barrier& bar, std::uint64_t seen);
  static void wait_for_done(const Barrier& bar, unsigned workers);
  void retire_workers();

  bool dispatch_all_ = false;  // reference scan mode ticks every channel
  unsigned executors_ = 0;     // coordinator + workers
  std::vector<std::unique_ptr<Lane>> lanes_;
  Barrier bar_;
  std::unique_ptr<ThreadPool> pool_;
  std::vector<std::future<std::uint64_t>> worker_codec_;
  bool retired_ = false;
};

}  // namespace wompcm
