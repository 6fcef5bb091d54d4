// Execution backends for the simulation service.
//
// A SimBackend is the event-stepped memory system behind one SimService
// (sim/service.h): it accepts demand transactions, answers back-pressure
// and next-event queries, and is ticked by the service's deterministic
// event loop. Two implementations exist:
//
//  - MemorySystem (sim/memory_system.h): every channel controller stepped
//    inline on the calling thread.
//  - ShardedBackend (sim/sharded.h): per-channel controller lanes stepped
//    by a gang of worker threads under a deterministic time barrier.
//
// Both produce bit-identical results under every scan mode, composition,
// and fault seed; make_backend() is the one place that chooses between
// them.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "common/address.h"
#include "controller/transaction.h"
#include "stats/metrics.h"
#include "stats/stats.h"

namespace wompcm {

struct SimConfig;
struct SimResult;

class SimBackend {
 public:
  virtual ~SimBackend() = default;

  virtual std::string arch_name() const = 0;
  virtual unsigned num_channels() const = 0;

  // Frontend back-pressure for the channel this address decodes to.
  virtual bool can_accept(const DecodedAddr& dec) const = 0;
  // Routes a demand transaction to its channel. tx.arrival must not
  // precede the latest tick.
  virtual void enqueue(const Transaction& tx) = 0;
  // Earliest future instant any channel could make progress (kNeverTick
  // when the whole system is quiescent).
  virtual Tick next_event_after(Tick now) = 0;
  // Performs all work available at `now` (monotone across calls).
  virtual void tick(Tick now) = 0;
  virtual bool drained() const = 0;
  virtual Tick last_completion() const = 0;

  // Folds the recorded per-stream slice for `stream` (a nonzero
  // Transaction::stream tag) into `into`, across every lane. Only valid
  // between ticks — the service calls it from poll(), when any workers are
  // parked at the barrier.
  virtual void fold_stream(std::uint32_t stream,
                           SimStats::StreamSlice& into) const = 0;

  // End of run: stops any workers, publishes every layer's end-of-run
  // scalars into `reg` (including "sim.end_time"), and fills
  // `result.stats` and `result.banks`. The driver keeps ownership of the
  // injection counters and of result.collect().
  virtual void finish(MetricsRegistry& reg, SimResult& result) = 0;

  // Codec nanoseconds accumulated on worker threads; valid after finish()
  // (zero for the serial backend, whose codec time lands in the calling
  // thread's counter).
  std::uint64_t worker_codec_ns() const { return worker_codec_ns_; }

 protected:
  std::uint64_t worker_codec_ns_ = 0;
};

// Builds the backend for `cfg`. Serial-fallback rule: sharded only when
// jobs > 1 AND cfg.geom.channels > 1; jobs <= 1 or a one-channel geometry
// take the serial MemorySystem.
std::unique_ptr<SimBackend> make_backend(const SimConfig& cfg, unsigned jobs);

}  // namespace wompcm
