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
// through its MemorySystem) interleaves trace arrivals with these events,
// and hands each transaction over at its arrival instant: tx.arrival is
// the instant of the next tick(), so every queued entry has arrived and
// a pick never meets one that has not.
//
// The event set is exact. Besides refresh checks, an instant is scheduled
// only where an issue can happen: every bank that an entry inside a scan
// window waits on has an event at max(its wake, bus free, the entry's
// arrival), the wake being the bank's busy end (or its refresh end, when
// write pausing does not hide refresh). Entries past the window need none:
// only a take moves the window, and a take holds the bus, so the tick
// that took pushes bus free if a ready bank is then waited on.
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
// wakeup min-heap processed at each tick), lists each queued transaction
// under the bank it routes to (controller/queues.h), so a pick walks only
// the lists of ready banks, and caches the earliest scheduled event so the
// memory system can skip channels with nothing due. A WCPCM read routes by
// the cache tags, which change while it waits: when plan() retags a cache
// row, relist_reads() moves that row's queued reads to their new routes.
//
// Audit build: the test suite links a variant of this library compiled
// with WOMPCM_AUDIT. It checks every find_pick result against the
// straight-line pick_transaction scan (find_pick_reference), every
// channel the memory system skips (audit_skipped), that every queued
// entry has arrived by each tick (audit_arrived), and that no instant at
// which that scan could issue falls before the next tick (audit_missed,
// at every tick and every next_event_after); a failed check aborts.
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

  // Hands a demand transaction to the controller at its arrival instant:
  // tx.arrival is the instant of the next tick() (or, for a write-back
  // spawned inside a tick, that tick's instant). tx.dec.channel must be
  // this controller's channel.
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

  // Queue entries the scheduler's picks have visited so far: a count of
  // scan work, identical on every host (not published as a metric).
  std::uint64_t scan_steps() const { return scan_steps_; }
  // Calls to tick(), and those that issued nothing and ran no refresh
  // check: counts of event-loop work, also unpublished.
  std::uint64_t ticks() const { return ticks_; }
  std::uint64_t idle_ticks() const { return idle_ticks_; }

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

  unsigned local_resource(unsigned global_resource) const {
    return global_to_local_[global_resource];
  }
  Bank& bank_mut(unsigned global_resource) {
    return banks_[local_resource(global_resource)];
  }
  // Earliest instant `b` can start a demand op: its busy end, or its
  // refresh end too when write pausing does not hide refresh.
  Tick wake_at(const Bank& b) const {
    return !pausing_ && b.refresh_until() > b.busy_until() ? b.refresh_until()
                                                          : b.busy_until();
  }
  // True while an entry inside `q`'s scan window is listed under `local`
  // (lists run in age order, so it is the list's oldest entry).
  static bool window_lists(const TransactionQueue& q, unsigned local) {
    return q.listed(local) && q.in_window(q.list_head(local));
  }
  // True while some queue's scan window holds an entry for local bank
  // `local`: the banks that need events.
  bool waited_on(unsigned local) const {
    return window_lists(read_q_, local) || window_lists(write_q_, local) ||
           window_lists(internal_q_, local);
  }
  // True while some ready bank is waited on.
  bool ready_waited_on() const;
  // Pushes `tx` into `q` under local bank `local`, with the bank's event.
  void list(TransactionQueue& q, const Transaction& tx, unsigned local);
  void note_waiting(unsigned local, Tick now, bool was_waited_on);
  bool can_issue(const Transaction& tx, Tick now) const;
  bool is_row_hit(const Transaction& tx) const;
  Pick find_pick(TransactionQueue& q, Tick now);
  Pick walk_lists(TransactionQueue& q);
  Pick find_pick_reference(const TransactionQueue& q, Tick now) const;
  // Audit build only: "read", "write" or "internal", for audit messages.
  const char* queue_name(const TransactionQueue& q) const;
  // Audit build only: aborts, naming `what`, unless `got` is the
  // straight-line scan's pick.
  void audit_pick(const TransactionQueue& q, Tick now, const Pick& got,
                  const char* what) const;
  // Audit build only: aborts, naming the entry, if some queued entry
  // arrives after `now` (an enqueue ahead of its arrival instant).
  void audit_arrived(Tick now) const;
  // Audit build only: aborts if some window entry could issue at an
  // instant in [from, until), which no tick will run: called by tick(now)
  // for the instants before `now`, and by next_event_after(now), which
  // declares `now` done, for `now` and the instants up to the event it
  // reports.
  void audit_missed(Tick from, Tick until) const;
  bool issue_fcfs(Tick now);
  bool issue_from(TransactionQueue& q, Tick now);
  // Takes entry `idx` of `q` and issues it.
  void issue_at(TransactionQueue& q, TransactionQueue::Pos idx, Tick now);
  void issue(const Transaction& tx, Tick now);
  void relist_reads(const DecodedAddr& dec, unsigned cache, Tick now);
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
  std::uint64_t scan_steps_ = 0;
  std::uint64_t ticks_ = 0;
  std::uint64_t idle_ticks_ = 0;
  std::vector<unsigned> refresh_touched_;  // global resources, scratch

  EventQueue events_;
  Tick next_event_ = kNeverTick;  // cached minimum of events_
  Tick last_tick_ = 0;
  Tick last_completion_ = 0;
  std::uint64_t next_internal_id_;

  // Configuration-derived constants hoisted off the hot path.
  bool refresh_active_ = false; // refresh engine live for this arch
  bool pausing_ = false;        // write pausing hides refresh from readiness

  std::uint64_t* ctr_reads_forwarded_ = nullptr;
  std::uint64_t* ctr_refresh_pauses_ = nullptr;
  std::uint64_t* ctr_internal_writes_ = nullptr;
};

}  // namespace wompcm
