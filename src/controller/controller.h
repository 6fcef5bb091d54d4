// The per-channel PCM memory controller: queues, bank/bus timing, write
// drain, write pausing, PCM-refresh — the DRAMSim2-equivalent substrate of
// the paper, scoped to exactly one channel.
//
// A controller owns the demand queues, back-pressure bound, scheduler
// scan, refresh engine, data bus, and bank state of its channel only; it
// holds no cross-channel state. The MemorySystem (sim/memory_system.h)
// instantiates one controller per channel and routes transactions by their
// decoded channel coordinate.
//
// The controller is event-stepped: tick(now) performs all work available at
// `now` (issue demand accesses, run due refresh checks), and
// next_event_after(now) reports the earliest future instant at which new
// work may become possible. The driving loop (SimService, sim/service.h,
// through its MemorySystem) interleaves trace arrivals with these events.
//
// Service-time model for an access issued at time s on bank B:
//   activate = row_read_ns if B's open row differs from the target row
//   read:  pre + activate + col_read_ns + burst + post
//   write: pre + activate + burst + program + post
// where pre/program/post come from the architecture's IssuePlan (WOM fast
// path vs alpha-write, tag checks, hidden-page second access) and the data
// bus of the channel is held for one burst at issue.
//
// Hot-path structure (see DESIGN.md "Hot path & complexity"): the
// controller keeps a BankBitmap of demand-ready banks (maintained by a
// wakeup min-heap processed at each tick), caches each transaction's
// routed bank in the queue at enqueue time (except dynamically-routed
// reads), and caches the earliest scheduled event so the memory system can
// skip channels with nothing due.
//
// Audit build: the test suite links a variant of this library compiled
// with WOMPCM_AUDIT. It checks every find_pick result against the
// straight-line pick_transaction scan (find_pick_reference), and every
// channel the memory system skips (audit_skipped); a failed check aborts.
#pragma once

#include <memory>
#include <vector>

#include "arch/arch.h"
#include "common/event_queue.h"
#include "controller/queues.h"
#include "controller/refresh_engine.h"
#include "controller/scheduler.h"
#include "controller/tier_front.h"
#include "pcm/bank.h"
#include "pcm/rank.h"
#include "pcm/tier_spec.h"
#include "stats/metrics.h"
#include "stats/stats.h"

namespace wompcm {

// Row-buffer management policy.
enum class RowPolicy : std::uint8_t {
  kOpen,    // leave the accessed row latched (open-page; default)
  kClosed,  // precharge after every access (no row-buffer hits)
};

const char* to_string(RowPolicy p);

// The memory-system settings every channel controller shares. SimConfig
// (sim/simulator.h) derives from this, so a run's configuration reaches
// each controller without a copy per layer.
struct ControllerConfig {
  MemoryGeometry geom;
  PcmTiming timing;
  SchedulerConfig sched;
  RefreshConfig refresh;
  RowPolicy row_policy = RowPolicy::kOpen;
  // Back-pressure bound on queued demand transactions, per channel: each
  // channel controller gets its own queue pair with this capacity, so a
  // saturated channel never stalls its siblings. Multi-channel configs
  // hold channels * queue_capacity transactions at full load. Must be >= 1.
  unsigned queue_capacity = 256;
  // Forward reads that hit a queued write (write-to-read forwarding).
  bool read_forwarding = true;
  // Optional DRAM-timing tier fronting each channel's PCM queues
  // (pcm/tier_spec.h). Disabled by default; a disabled tier leaves runs
  // bit-identical to a tierless build.
  TierSpec tier;
};

class MemoryController {
 public:
  // Serves `channel`: every enqueued transaction must decode to it.
  MemoryController(const ControllerConfig& cfg, unsigned channel,
                   Architecture& arch, SimStats& stats);

  // Frontend back-pressure: false when the demand queues are full.
  bool can_accept() const;

  // Hands a demand transaction to the controller. tx.arrival is the
  // enqueue time and must not precede the latest tick; tx.dec.channel must
  // be this controller's channel.
  void enqueue(Transaction tx);

  // Performs all work possible at time `now` (monotone across calls).
  void tick(Tick now);

  // Earliest future time at which tick() could make progress, or
  // kNeverTick if the controller is fully drained and quiescent.
  Tick next_event_after(Tick now);

  // Cached earliest scheduled event (may be at or before the current
  // instant when work is due). The memory system uses this to dispatch
  // tick() only to channels with something to do.
  Tick pending_event() const { return next_event_; }

  bool drained() const {
    return read_q_.empty() && write_q_.empty() && internal_q_.empty();
  }
  Tick last_completion() const { return last_completion_; }
  unsigned channel() const { return channel_; }

  std::size_t read_queue_size() const { return read_q_.size(); }
  std::size_t write_queue_size() const { return write_q_.size(); }
  std::size_t internal_queue_size() const { return internal_q_.size(); }
  std::size_t max_queue_depth() const { return max_queue_depth_; }
  // Cumulative time the channel's data bus was held by bursts.
  Tick bus_busy_time() const { return bus_busy_time_; }

  // This channel's bank-like resources, in ascending global-resource
  // order (main banks first, then any cache arrays).
  const std::vector<Bank>& banks() const { return banks_; }
  // Bank state for a global resource index owned by this channel.
  const Bank& bank(unsigned global_resource) const {
    return banks_[local_resource(global_resource)];
  }
  const RefreshEngine& refresh_engine() const { return refresh_; }
  // The channel's DRAM front tier, or nullptr when tiering is disabled.
  const TierFront* tier() const { return tier_.get(); }

  // Publishes this channel's counters ("ch<N>." prefix) plus its share of
  // the system-wide refresh totals into the registry.
  void publish_metrics(MetricsRegistry& reg) const;

  // Audit build only: aborts unless a tick at `now` would do nothing — no
  // queue holds an entry the straight-line scan can issue, and no refresh
  // check is due.
  void audit_skipped(Tick now) const;

 private:
  struct Pick {
    TransactionQueue::Pos idx = kNoPick;
    bool row_hit = false;
    Tick arrival = kNeverTick;
  };
  // A future instant at which a local bank may become demand-ready again.
  struct BankWake {
    Tick at = 0;
    unsigned resource = 0;  // local index into banks_
  };
  struct WakeLater {
    bool operator()(const BankWake& a, const BankWake& b) const {
      return a.at > b.at;
    }
  };

  // Memoized failed scan for one queue (see find_pick). A recorded failure
  // proves "no entry can issue", and stays valid until an event occurs that
  // could create a pick: a bank turning ready (scan_epoch_), a push into
  // this queue (pushes), a dynamic-route mutation (rv), or the queue's
  // first not-yet-arrived entry coming due (barrier). Bank-busying events
  // and takes only shrink the issuable set, so they leave a failure valid.
  struct ScanCache {
    std::uint64_t epoch = 0;
    std::uint64_t pushes = 0;
    std::uint64_t rv = 0;
    Tick barrier = 0;
    bool valid = false;
  };

  unsigned local_resource(unsigned global_resource) const {
    return global_to_local_[global_resource];
  }
  ScanCache& scan_cache_for(const TransactionQueue& q) {
    if (&q == &read_q_) return scan_cache_[0];
    if (&q == &write_q_) return scan_cache_[1];
    return scan_cache_[2];
  }
  Bank& bank_mut(unsigned global_resource) {
    return banks_[local_resource(global_resource)];
  }
  bool can_issue(const Transaction& tx, Tick now) const;
  bool is_row_hit(const Transaction& tx) const;
  Pick find_pick(TransactionQueue& q, Tick now);
  Pick find_pick_indexed(TransactionQueue& q, Tick now);
  Pick find_pick_reference(const TransactionQueue& q, Tick now) const;
  // Audit build only: aborts, naming `what`, unless `got` is the
  // straight-line scan's pick.
  void audit_pick(const TransactionQueue& q, Tick now, const Pick& got,
                  const char* what) const;
  bool issue_fcfs(Tick now);
  bool issue_from(TransactionQueue& q, Tick now);
  void issue(Transaction tx, Tick now);
  void enqueue_tier_writeback(const DecodedAddr& victim, Tick now,
                              bool record);
  bool refresh_unit_ready(unsigned resource, Tick now) const;
  void run_refresh(Tick now);
  void process_bank_wakes(Tick now);
  void wake_push(Tick at, unsigned local) {
    wake_heap_.push_back(BankWake{at, local});
    std::push_heap(wake_heap_.begin(), wake_heap_.end(), WakeLater{});
  }
  // Schedules a controller event, keeping next_event_ == the heap minimum
  // (re-pushing the current minimum is a no-op).
  void push_event(Tick t) {
    if (t == kNeverTick || t == next_event_) return;
    events_.schedule(t);
    if (t < next_event_) next_event_ = t;
  }
  void note_queue_depth();
  // Lazily-bound counter increment: resolves the CounterSet slot on first
  // use so untouched counters never appear in reports.
  void bump(std::uint64_t*& slot, const char* name) {
    if (slot == nullptr) slot = stats_.counters.slot(name);
    ++*slot;
  }

  ControllerConfig cfg_;
  unsigned channel_;
  Architecture& arch_;
  SimStats& stats_;

  TransactionQueue read_q_;
  TransactionQueue write_q_;
  // Architecture-generated write-backs (WCPCM victims): drained in the
  // background, only when no demand transaction can issue.
  TransactionQueue internal_q_;
  // Present only when cfg_.tier.enabled; probed at enqueue time, so the
  // no-tier hot path pays a single null check.
  std::unique_ptr<TierFront> tier_;
  // This channel's banks; global resource index -> local slot.
  std::vector<Bank> banks_;
  std::vector<unsigned> global_to_local_;
  Tick bus_free_ = 0;  // the channel's one data bus
  Tick bus_busy_time_ = 0;
  std::size_t max_queue_depth_ = 0;
  WriteDrainPolicy drain_;
  RefreshEngine refresh_;

  // Demand-readiness bitmap over local banks: bit set == the bank could
  // start a demand op right now (busy over, and — unless write pausing
  // hides refresh — refresh over). Updated by process_bank_wakes() at tick
  // start and synchronously on issue/refresh within a tick.
  BankBitmap ready_;
  std::vector<BankWake> wake_heap_;  // min-heap of readiness re-check times
  ScanCache scan_cache_[3];          // read, write, internal
  // Advances whenever a readiness bit is set (pushes are detected
  // per-queue via TransactionQueue::pushes()).
  std::uint64_t scan_epoch_ = 0;
  std::vector<unsigned> refresh_touched_;  // global resources, scratch

  EventQueue events_;
  Tick next_event_ = kNeverTick;  // cached minimum of events_
  Tick last_tick_ = 0;
  Tick last_completion_ = 0;
  std::uint64_t next_internal_id_;

  // Configuration-derived constants hoisted off the hot path.
  bool refresh_active_ = false; // refresh engine live for this arch
  bool pausing_ = false;        // write pausing hides refresh from readiness
  bool dynamic_reads_ = false;  // demand-read routing may change while queued
  RefreshEngine::BankResolver refresh_bank_of_;  // built once, not per tick
  std::function<bool(unsigned)> refresh_ready_fn_;

  std::uint64_t* ctr_reads_forwarded_ = nullptr;
  std::uint64_t* ctr_refresh_pauses_ = nullptr;
  std::uint64_t* ctr_internal_writes_ = nullptr;
};

}  // namespace wompcm
