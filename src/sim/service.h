// Simulation-as-a-service: a session-oriented streaming API over the
// simulator.
//
// A SimService owns one memory system (sim/memory_system.h), stepped on
// the calling thread, for its whole lifetime and lets any number of client
// streams feed it request records incrementally:
//
//   SimService svc(cfg);
//   SessionId a = svc.open_session({.name = "core0"});
//   SessionId b = svc.open_session({.name = "core1"});
//   while (...) {
//     Accepted got = svc.submit(a, records, n);   // partial-accept
//     svc.step();                                 // advance simulated time
//     StreamStats s = svc.poll(a);                // per-stream books
//   }
//   svc.close_session(a); svc.close_session(b);   // end of stream
//   SimResult r = svc.drain();                    // run to quiescence
//
// Ordering and determinism. Each session keeps its own arrival clock
// (record gaps accumulate per stream, exactly like one core of a
// multi-programmed mix); the service merges buffered arrivals from all
// sessions into strict (arrival time, session id) order — the identical
// order trace/mix.h produces for the pre-merged trace — and runs the
// serial event loop of the batch simulator over that merged stream. The
// one thing streaming adds is *uncertainty about the future*: an open
// session whose buffer has run dry could still submit a record at any
// arrival >= its clock (gaps are unsigned, so a session clock is a lower
// bound on everything it will ever send). The service therefore never
// executes a simulated instant t unless t < the minimum clock over all
// open dry sessions — every instant is "sealed" before it runs, with the
// full set of same-instant arrivals buffered. Within a sealed instant the
// loop body is the batch one, so a K-session service run is bit-identical
// to a batch run() over the pre-merged trace, independent of how the
// clients chunk their submissions. step() simply stops ("starved") at the
// first unsealed instant; it resumes after more input or a close.
//
// Back-pressure. submit() accepts up to the session's free buffer
// capacity and reports the count — never a silent drop; the client
// resubmits the tail after a step(). Downstream, a full channel queue
// defers injection exactly as in the batch loop (head-of-line blocking in
// merge order; the deferral books are per channel and per stream).
//
// End of stream. close_session() marks the stream done: its clock stops
// gating the merge, its buffered tail still drains. drain() requires
// every session closed, runs the system to quiescence, and returns the
// aggregate SimResult; per-stream books are published into the result's
// metrics registry under "stream<N>.*" (stats/metrics.h).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/address.h"
#include "common/event_queue.h"
#include "controller/transaction.h"
#include "sim/simulator.h"
#include "trace/trace.h"

namespace wompcm {

class MemorySystem;

using SessionId = std::uint32_t;

struct ServiceOptions {
  // Accepted and ignored: the memory system always steps on the calling
  // thread. Kept only because the repository benchmark still passes it;
  // the benchmark change of ROADMAP item 7 deletes it.
  unsigned jobs = 1;
};

struct StreamSpec {
  // Label reported in poll(); defaults to "s<id>".
  std::string name;
  // Back-pressure bound on buffered (accepted but not yet injected)
  // records; submit() partial-accepts beyond it. Must be >= 1:
  // open_session() throws std::invalid_argument for 0.
  std::size_t capacity = 4096;
  // Base of the stream's arrival clock. Clamped forward to the current
  // simulated time for sessions opened mid-run (a stream cannot inject
  // into the past).
  Tick start = 0;
  // Tag this session's transactions so recorded demand latencies are
  // sliced per stream ("stream<N>.*" metrics and poll() latency figures)
  // on top of the aggregate books. Tagging never changes simulated
  // behaviour; turning it off removes the per-access slice bookkeeping.
  bool per_access_stats = true;
};

// submit() outcome: how many records were accepted (prefix order; the
// client resubmits from records + accepted). Never a silent drop.
struct Accepted {
  std::size_t accepted = 0;
};

// One step() outcome.
struct StepResult {
  // Demand transactions handed to the memory system during this step.
  std::uint64_t injected = 0;
  // Simulated clock after the step.
  Tick now = 0;
  // True when the service stopped because more input could change the
  // outcome: an open session's buffer ran dry (or back-pressure wedged the
  // merge head) before the next instant could be sealed. False once every
  // session is closed and the system has run to quiescence.
  bool starved = false;
};

// poll() snapshot of one session's books.
struct StreamStats {
  std::string name;
  bool open = false;
  Tick clock = 0;                     // arrival frontier of the stream
  std::size_t buffered = 0;           // accepted, awaiting injection
  std::size_t capacity = 0;
  std::uint64_t submitted = 0;        // records accepted so far
  std::uint64_t rejected = 0;         // offered but bounced by back-pressure
  std::uint64_t injected_reads = 0;
  std::uint64_t injected_writes = 0;
  std::uint64_t deferred = 0;         // arrivals delayed by channel pressure
  // Recorded (post-warmup) completions, from the per-stream latency slice;
  // all zero when per_access_stats is off.
  std::uint64_t completed_reads = 0;
  std::uint64_t completed_writes = 0;
  double avg_read_ns = 0.0;
  double avg_write_ns = 0.0;
  Tick max_read_ns = 0;
  Tick max_write_ns = 0;
  std::uint64_t reads_forwarded = 0;  // served from the write queue
  std::uint64_t tier_absorbed = 0;    // served by the DRAM front tier
};

class SimService {
 public:
  explicit SimService(const SimConfig& cfg, ServiceOptions opts = {});
  ~SimService();

  SimService(const SimService&) = delete;
  SimService& operator=(const SimService&) = delete;

  // Opens a stream. Throws std::logic_error after drain(), and
  // std::invalid_argument for a zero spec.capacity.
  SessionId open_session(StreamSpec spec = {});

  // Feeds records to a session, accepting a prefix bounded by the
  // session's free buffer capacity. Throws std::invalid_argument for an
  // unknown or closed session, or when a record of that prefix has a
  // coordinate outside the geometry (the error names the field and value;
  // nothing is accepted). Zero records is a valid no-op.
  Accepted submit(SessionId id, const TraceRecord* records, std::size_t n);
  Accepted submit(SessionId id, const std::vector<TraceRecord>& records) {
    return submit(id, records.data(), records.size());
  }

  // End of stream: no further submits; the buffered tail still drains and
  // the session's clock stops gating the merge. Throws
  // std::invalid_argument if already closed.
  void close_session(SessionId id);

  // Advances simulated time as far as determinism allows: until every
  // sealed instant has run and the next one needs more input (starved), or
  // — once all sessions are closed — until the system is quiescent.
  StepResult step();

  // Requires every session closed (std::logic_error otherwise). Runs to
  // quiescence, publishes the books, and returns the aggregate result.
  // The service is finished afterwards: open/submit/step throw.
  SimResult drain();

  // Per-session books; valid any time before drain(), including between
  // steps of a live run.
  StreamStats poll(SessionId id) const;

  Tick now() const { return clock_.now(); }
  unsigned open_sessions() const;

  // The memory system, for tests that read its controllers' work counts
  // (MemoryController::scan_steps); valid after drain() too.
  const MemorySystem& memory_system() const { return *system_; }

  // The batch entry: one internal session, the whole trace fed through the
  // submit/step/close/drain cycle, injection_block records at a time. The
  // internal session is untagged and publishes no stream metrics, so a
  // batch registry holds only the system books.
  SimResult run_to_completion(TraceSource& trace);

 private:
  struct Session {
    std::string name;
    bool open = true;
    bool publish = true;     // emit "stream<N>.*" metrics at drain
    std::uint32_t tag = 0;   // Transaction::stream value; 0 = untagged
    Tick clock = 0;          // arrival of the last accepted record
    // Fixed-capacity ring of not-yet-injected transactions (ids are
    // assigned at injection, in merge order).
    std::vector<Transaction> ring;
    std::size_t head = 0;
    std::size_t count = 0;
    // Books.
    std::uint64_t submitted = 0;
    std::uint64_t rejected = 0;
    std::uint64_t injected_reads = 0;
    std::uint64_t injected_writes = 0;
    std::uint64_t deferred = 0;

    const Transaction& front() const { return ring[head]; }
    void pop() {
      head = head + 1 == ring.size() ? 0 : head + 1;
      --count;
    }
    void push(const Transaction& tx) {
      std::size_t at = head + count;
      if (at >= ring.size()) at -= ring.size();
      ring[at] = tx;
      ++count;
    }
  };

  // One pump iteration: at most one simulated instant, end to end.
  enum class Pump : std::uint8_t { kProgress, kStarved, kQuiescent };

  Session& session_for(SessionId id, const char* what);
  const Session& session_for(SessionId id, const char* what) const;
  // The merge head: the buffered transaction least in (arrival, session)
  // order, or nullptr when every buffer is empty.
  const Transaction* peek_head(std::size_t* session) const;
  // Lower bound on the arrival of any record an open dry session may still
  // submit (kNeverTick when no session is open with an empty buffer).
  // Instants at or past this bound are not yet sealed.
  Tick unknown_frontier() const;
  // Injects every sealed merge head due at or before `now` while the
  // target channel accepts it (the batch loop's inner while).
  void inject_due(Tick now);
  Pump pump_once();
  void require_live(const char* what) const;
  SimResult finalize();

  SimConfig cfg_;
  std::unique_ptr<MemorySystem> system_;
  DecodedAddr limit_;  // one past the largest coordinate, per field
  Clock clock_;
  std::uint64_t warmup_ = 0;
  std::uint64_t next_id_ = 1;
  // An instant whose arrivals were injected but whose tick is still owed:
  // set when an instant's buffer-emptying injection un-seals the instant
  // itself (a gap-0 submit could still land there). The owed tick runs
  // first thing once the instant seals again.
  Tick pending_tick_ = kNeverTick;
  std::vector<Session> sessions_;
  std::vector<std::uint64_t> deferred_;  // per channel
  std::uint64_t injected_reads_ = 0;
  std::uint64_t injected_writes_ = 0;
  std::uint64_t trace_gen_ticks_ = 0;
  std::uint64_t codec_ns_start_ = 0;
  std::uint64_t start_ns_ = 0;
  bool finished_ = false;
};

}  // namespace wompcm
