#include "sim/service.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "common/perf.h"
#include "sim/memory_system.h"

namespace wompcm {
namespace {

// Rejects the config values no run can make progress under. Every run
// (run(), run_sweep(), womd, perf_serve) builds a SimService, so checking
// here covers them all.
const SimConfig& checked(const SimConfig& cfg) {
  // A zero-capacity queue never accepts a transaction: the loop would spin.
  if (cfg.queue_capacity == 0) {
    throw std::invalid_argument("queue_capacity must be >= 1 (got 0)");
  }
  if (cfg.injection_block == 0) {
    throw std::invalid_argument("injection_block must be >= 1 (got 0)");
  }
  return cfg;
}

}  // namespace

SimService::SimService(const SimConfig& cfg, ServiceOptions /*opts*/)
    : cfg_(checked(cfg)),
      system_(std::make_unique<MemorySystem>(cfg)),
      mapper_(cfg.geom),
      warmup_(cfg.warmup_accesses.value_or(0)),
      deferred_(cfg.geom.channels, 0),
      codec_ns_start_(perf::codec_ns()),
      start_ns_(perf::now_ns()) {}

SimService::~SimService() = default;

void SimService::require_live(const char* what) const {
  if (finished_) {
    throw std::logic_error(std::string("SimService::") + what +
                           ": the service has been drained");
  }
}

SimService::Session& SimService::session_for(SessionId id, const char* what) {
  if (id >= sessions_.size()) {
    throw std::invalid_argument(std::string("SimService::") + what +
                                ": unknown session " + std::to_string(id));
  }
  return sessions_[id];
}

const SimService::Session& SimService::session_for(SessionId id,
                                                   const char* what) const {
  return const_cast<SimService*>(this)->session_for(id, what);
}

SessionId SimService::open_session(StreamSpec spec) {
  require_live("open_session");
  if (spec.capacity == 0) {
    throw std::invalid_argument(
        "SimService::open_session: capacity must be >= 1 (got 0)");
  }
  const SessionId id = static_cast<SessionId>(sessions_.size());
  Session s;
  // append(), not "s" + to_string(id): GCC 12 warns -Wrestrict on that.
  s.name = spec.name.empty() ? std::string("s").append(std::to_string(id))
                             : std::move(spec.name);
  // A stream opened mid-run joins at the current instant: its clock is a
  // lower bound on future arrivals, and the merge may already have sealed
  // everything before now().
  s.clock = std::max(spec.start, clock_.now());
  s.tag = spec.per_access_stats ? id + 1 : 0;
  s.ring.resize(spec.capacity);
  sessions_.push_back(std::move(s));
  return id;
}

Accepted SimService::submit(SessionId id, const TraceRecord* records,
                            std::size_t n) {
  require_live("submit");
  Session& s = session_for(id, "submit");
  if (!s.open) {
    throw std::invalid_argument("SimService::submit: session " +
                                std::to_string(id) + " (" + s.name +
                                ") is closed");
  }
  const std::uint64_t t0 = perf::now_ticks();
  std::size_t took = 0;
  // Decode the accepted prefix straight into the ring: arrival clocks
  // accumulate per stream (rec.gap is relative to the stream's previous
  // record), addresses decode once, here, like the batch front end.
  while (took < n && s.count < s.ring.size()) {
    const TraceRecord& rec = records[took];
    Transaction tx;
    tx.addr = rec.addr;
    tx.dec = mapper_.decode(rec.addr);
    tx.type = rec.type;
    s.clock += rec.gap;
    tx.arrival = s.clock;
    tx.stream = s.tag;
    s.push(tx);
    ++took;
  }
  trace_gen_ticks_ += perf::now_ticks() - t0;
  s.submitted += took;
  s.rejected += n - took;
  return Accepted{took};
}

void SimService::close_session(SessionId id) {
  require_live("close_session");
  Session& s = session_for(id, "close_session");
  if (!s.open) {
    throw std::invalid_argument("SimService::close_session: session " +
                                std::to_string(id) + " (" + s.name +
                                ") is already closed");
  }
  s.open = false;
}

unsigned SimService::open_sessions() const {
  unsigned n = 0;
  for (const Session& s : sessions_) n += s.open ? 1 : 0;
  return n;
}

const Transaction* SimService::peek_head(std::size_t* session) const {
  const Transaction* best = nullptr;
  for (std::size_t i = 0; i < sessions_.size(); ++i) {
    const Session& s = sessions_[i];
    if (s.count == 0) continue;
    // Strict < ties to the lower session id — the MixTraceSource order.
    if (best == nullptr || s.front().arrival < best->arrival) {
      best = &s.front();
      *session = i;
    }
  }
  return best;
}

Tick SimService::unknown_frontier() const {
  Tick t = kNeverTick;
  for (const Session& s : sessions_) {
    if (s.open && s.count == 0) t = std::min(t, s.clock);
  }
  return t;
}

void SimService::inject_due(Tick now) {
  for (;;) {
    std::size_t si = 0;
    const Transaction* head = peek_head(&si);
    if (head == nullptr || head->arrival > now) return;
    // The head is only certainly next in merge order if no open dry
    // session could still slot a record before (or tied with, from a
    // lower-id stream) it. A tie is resolved conservatively: wait until
    // the blocker submits or closes.
    if (head->arrival >= unknown_frontier()) return;
    if (!system_->can_accept(head->dec)) return;

    Session& s = sessions_[si];
    Transaction tx = *head;
    s.pop();
    tx.id = next_id_++;
    // Warmup semantics: the budget counts transactions, reads and writes
    // jointly, in merge order — the first `warmup` accesses of either
    // kind run unrecorded to reach steady state.
    tx.record = tx.id > warmup_;
    // An arrival held back by back-pressure is timestamped with its
    // actual acceptance time (the CPU stalled; memory latency starts when
    // the controller sees the request).
    if (tx.arrival < now) {
      ++deferred_[tx.dec.channel];
      ++s.deferred;
      tx.arrival = now;
    }
    if (tx.type == AccessType::kRead) {
      ++injected_reads_;
      ++s.injected_reads;
    } else {
      ++injected_writes_;
      ++s.injected_writes;
    }
    system_->enqueue(tx);
  }
}

SimService::Pump SimService::pump_once() {
  if (pending_tick_ == kNeverTick) {
    const Tick now0 = clock_.now();
    const Tick unknown = unknown_frontier();
    std::size_t si = 0;
    const Transaction* head = peek_head(&si);
    // The batch loop's termination condition: no pending input and every
    // queue drained — even with future wakeups still scheduled (a drained
    // system's events are no-ops, and ticking them would diverge from the
    // batch end time).
    if (head == nullptr && unknown == kNeverTick && system_->drained()) {
      return Pump::kQuiescent;
    }
    const bool head_certain = head != nullptr && head->arrival < unknown;

    // The batch loop body: the next instant is the earlier of the merge
    // head's (possibly deferred) arrival and the memory system's next
    // event.
    Tick t_arrival = kNeverTick;
    if (head_certain && system_->can_accept(head->dec)) {
      t_arrival = std::max(head->arrival, now0);
    }
    const Tick ne = system_->next_event_after(now0);
    const Tick target = earliest(t_arrival, ne);
    if (target == kNeverTick) {
      // Nothing known can happen. A certain head here means the channel
      // queue is wedged with no event to free it — the batch loop's
      // quiescence break. Otherwise it's quiescent only when no input can
      // ever arrive (all sessions closed and drained).
      if (head_certain) return Pump::kQuiescent;
      return (head != nullptr || unknown != kNeverTick) ? Pump::kStarved
                                                        : Pump::kQuiescent;
    }
    // Seal the instant: an open dry session with clock <= target could
    // still submit an arrival at or before it.
    if (target >= unknown) return Pump::kStarved;
    clock_.advance({target});
    pending_tick_ = clock_.now();
  }

  // Execute the owed instant: all due arrivals, then its one tick — but
  // only once the instant is still/again sealed (injections that empty a
  // buffer can expose it to a gap-0 resubmission at the same instant).
  const Tick now = pending_tick_;
  inject_due(now);
  if (unknown_frontier() <= now) return Pump::kStarved;
  system_->tick(now);
  pending_tick_ = kNeverTick;
  return Pump::kProgress;
}

StepResult SimService::step() {
  require_live("step");
  StepResult r;
  const std::uint64_t before = injected_reads_ + injected_writes_;
  for (;;) {
    const Pump p = pump_once();
    if (p == Pump::kProgress) continue;
    r.starved = p == Pump::kStarved;
    break;
  }
  r.injected = injected_reads_ + injected_writes_ - before;
  r.now = clock_.now();
  return r;
}

SimResult SimService::drain() {
  require_live("drain");
  for (const Session& s : sessions_) {
    if (s.open) {
      throw std::logic_error("SimService::drain: session " + s.name +
                             " is still open (close_session first)");
    }
  }
  // With every session closed nothing is unknown: the pump runs every
  // remaining instant to quiescence.
  while (pump_once() == Pump::kProgress) {
  }
  return finalize();
}

SimResult SimService::finalize() {
  SimResult result;
  result.arch_name = system_->arch_name();

  MetricsRegistry reg;
  reg.set_counter("sim.injected_reads", injected_reads_);
  reg.set_counter("sim.injected_writes", injected_writes_);
  std::uint64_t deferred_total = 0;
  for (unsigned c = 0; c < deferred_.size(); ++c) {
    reg.set_counter(channel_metric(c, "deferred_injections"), deferred_[c]);
    deferred_total += deferred_[c];
  }
  reg.set_counter("sim.deferred_injections", deferred_total);
  system_->finish(reg, result);

  // Per-stream books, for sessions that asked for them.
  for (std::size_t i = 0; i < sessions_.size(); ++i) {
    const Session& s = sessions_[i];
    if (!s.publish) continue;
    const unsigned id = static_cast<unsigned>(i);
    reg.set_counter(stream_metric(id, "submitted"), s.submitted);
    reg.set_counter(stream_metric(id, "injected_reads"), s.injected_reads);
    reg.set_counter(stream_metric(id, "injected_writes"), s.injected_writes);
    reg.set_counter(stream_metric(id, "deferred_injections"), s.deferred);
    if (s.tag != 0) {
      SimStats::StreamSlice slice;
      system_->fold_stream(s.tag, slice);
      reg.set_counter(stream_metric(id, "reads"),
                      slice.read_latency.count());
      reg.set_counter(stream_metric(id, "writes"),
                      slice.write_latency.count());
      reg.set_gauge(stream_metric(id, "avg_read_ns"),
                    slice.read_latency.mean());
      reg.set_gauge(stream_metric(id, "avg_write_ns"),
                    slice.write_latency.mean());
      reg.set_counter(stream_metric(id, "reads_forwarded"),
                      slice.reads_forwarded);
      reg.set_counter(stream_metric(id, "tier_absorbed"),
                      slice.tier_absorbed);
    }
  }
  result.collect(reg);

  // Attribute the host-side wall clock: trace fetch + decode is timed
  // directly (submit and run_to_completion), codec time accumulates in
  // this thread's counter, and the controller gets the rest.
  result.phases.total_ns = perf::now_ns() - start_ns_;
  result.phases.trace_gen_ns = perf::ticks_to_ns(trace_gen_ticks_);
  result.phases.codec_ns = perf::codec_ns() - codec_ns_start_;
  const std::uint64_t accounted =
      result.phases.trace_gen_ns + result.phases.codec_ns;
  result.phases.controller_ns =
      result.phases.total_ns > accounted ? result.phases.total_ns - accounted
                                         : 0;

  finished_ = true;
  return result;
}

StreamStats SimService::poll(SessionId id) const {
  const Session& s = session_for(id, "poll");
  StreamStats out;
  out.name = s.name;
  out.open = s.open;
  out.clock = s.clock;
  out.buffered = s.count;
  out.capacity = s.ring.size();
  out.submitted = s.submitted;
  out.rejected = s.rejected;
  out.injected_reads = s.injected_reads;
  out.injected_writes = s.injected_writes;
  out.deferred = s.deferred;
  if (s.tag != 0) {
    SimStats::StreamSlice slice;
    system_->fold_stream(s.tag, slice);
    out.completed_reads = slice.read_latency.count();
    out.completed_writes = slice.write_latency.count();
    out.avg_read_ns = slice.read_latency.mean();
    out.avg_write_ns = slice.write_latency.mean();
    out.max_read_ns = slice.read_latency.max();
    out.max_write_ns = slice.write_latency.max();
    out.reads_forwarded = slice.reads_forwarded;
    out.tier_absorbed = slice.tier_absorbed;
  }
  return out;
}

SimResult SimService::run_to_completion(TraceSource& trace) {
  // One untagged, unpublished session: the batch path keeps the exact
  // pre-service books and registry (no "stream<N>.*" entries, no
  // per-access slice overhead on the controller hot path).
  StreamSpec spec;
  spec.name = "batch";
  spec.capacity = cfg_.injection_block;
  spec.per_access_stats = false;
  const SessionId sid = open_session(std::move(spec));
  sessions_[sid].publish = false;

  // Fetch + feed a block at a time (the PR-8 batched front end): block
  // fetches amortize the virtual call, and the service's pump consumes
  // the buffered prefix exactly as the batch loop would.
  const std::size_t block = cfg_.injection_block;
  std::vector<TraceRecord> buf(block);
  std::size_t have = 0;
  std::size_t at = 0;
  bool eot = false;
  for (;;) {
    if (at == have) {
      if (eot) break;
      const std::uint64_t t0 = perf::now_ticks();
      have = trace.next_block(buf.data(), block);
      trace_gen_ticks_ += perf::now_ticks() - t0;
      at = 0;
      if (have < block) eot = true;
      if (have == 0) break;
    }
    at += submit(sid, buf.data() + at, have - at).accepted;
    step();
  }
  close_session(sid);
  return drain();
}

}  // namespace wompcm
