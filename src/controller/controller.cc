#include "controller/controller.h"

#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace wompcm {

const char* to_string(RowPolicy p) {
  return p == RowPolicy::kOpen ? "open-page" : "closed-page";
}

MemoryController::MemoryController(const ControllerConfig& cfg,
                                   unsigned channel, Architecture& arch,
                                   SimStats& stats)
    : cfg_(cfg),
      channel_(channel),
      arch_(arch),
      stats_(stats),
      drain_(cfg.sched),
      refresh_(cfg.refresh, cfg.timing, cfg.geom, channel),
      next_internal_id_((std::uint64_t{1} << 62) |
                        (static_cast<std::uint64_t>(channel) << 48)) {
  std::string why;
  if (!cfg_.geom.valid(&why)) {
    throw std::invalid_argument("controller: bad geometry: " + why);
  }
  if (channel_ >= cfg_.geom.channels) {
    throw std::invalid_argument("controller: channel out of range");
  }
  if (!cfg_.timing.valid(&why)) {
    throw std::invalid_argument("controller: bad timing: " + why);
  }
  if (!cfg_.sched.valid(&why)) {
    throw std::invalid_argument("controller: bad scheduler config: " + why);
  }
  // Claim exactly this channel's bank-like resources, preserving their
  // global-resource order.
  const unsigned total = arch.num_resources();
  global_to_local_.assign(total, ~0u);
  for (unsigned r = 0; r < total; ++r) {
    if (arch.resource_channel(r) == channel_) {
      global_to_local_[r] = static_cast<unsigned>(banks_.size());
      banks_.emplace_back();
    }
  }

  const auto nlocal = static_cast<unsigned>(banks_.size());
  ready_.resize(nlocal, true);  // every bank starts idle
  wake_heap_.reserve(2 * static_cast<std::size_t>(nlocal) + 16);
  refresh_touched_.reserve(nlocal);
  events_.reserve(4 * static_cast<std::size_t>(cfg_.queue_capacity) + 64);
  const unsigned window = cfg_.sched.scan_limit;
  read_q_.configure(nlocal, cfg_.queue_capacity, nullptr, window);
  // Only the write queue is probed by line (read forwarding).
  write_q_.configure(nlocal, cfg_.queue_capacity, &cfg_.geom, window);
  internal_q_.configure(nlocal, cfg_.queue_capacity, nullptr, window);

  refresh_active_ = refresh_.active(arch_);
  pausing_ = refresh_.write_pausing();

  if (refresh_active_) push_event(refresh_.next_check());

  if (cfg_.tier.enabled) {
    tier_ = std::make_unique<TierFront>(cfg_.tier, cfg_.geom, channel_);
  }
}

bool MemoryController::can_accept() const {
  return read_q_.size() + write_q_.size() < cfg_.queue_capacity;
}

void MemoryController::note_queue_depth() {
  const std::size_t depth =
      read_q_.size() + write_q_.size() + internal_q_.size();
  if (depth > max_queue_depth_) max_queue_depth_ = depth;
}

void MemoryController::enqueue(Transaction tx) {
  assert(tx.arrival >= last_tick_);
  assert(tx.dec.channel == channel_);
  if (tx.internal) {
    internal_q_.push(tx, local_resource(arch_.route(tx.dec, tx.type, true)));
    note_queue_depth();
    push_event(tx.arrival);
    if (bus_free_ > tx.arrival) push_event(bus_free_);
    return;
  }
  if (tx.background) {
    // Tier writeback: demand-routed (it traverses a composed WOM cache on
    // its way into PCM) but queued with the background write-backs so it
    // never starves demand traffic.
    internal_q_.push(tx, local_resource(arch_.route(tx.dec, tx.type, false)));
    note_queue_depth();
    push_event(tx.arrival);
    if (bus_free_ > tx.arrival) push_event(bus_free_);
    return;
  }
  if (tier_ != nullptr) {
    // The DRAM front tier sits ahead of the PCM queues: a hit completes at
    // DRAM latency without consuming a queue slot (the same
    // complete-at-enqueue shape as read forwarding below); a miss falls
    // through to the PCM path. Either may evict a dirty line into a
    // background writeback.
    const TierFront::Result r = tx.type == AccessType::kRead
                                    ? tier_->on_read(tx.dec, tx.arrival)
                                    : tier_->on_write(tx.dec, tx.arrival);
    if (r.writeback) enqueue_tier_writeback(r.victim, tx.arrival, tx.record);
    if (r.absorbed) {
      const Tick latency = r.done - tx.arrival;
      if (tx.record) {
        if (tx.type == AccessType::kRead) {
          stats_.demand_read_latency.add(latency);
          stats_.read_latency_hist.add(latency);
        } else {
          stats_.demand_write_latency.add(latency);
          stats_.write_latency_hist.add(latency);
        }
        if (tx.stream != 0) {
          SimStats::StreamSlice& slice = stats_.stream_slice(tx.stream);
          ++slice.tier_absorbed;
          (tx.type == AccessType::kRead ? slice.read_latency
                                        : slice.write_latency)
              .add(latency);
        }
      }
      if (r.done > last_completion_) last_completion_ = r.done;
      return;
    }
  }
  if (tx.type == AccessType::kRead) {
    if (cfg_.read_forwarding && write_q_.contains_line(tx.dec)) {
      // The freshest copy sits in the write queue: forward it at buffer
      // latency without touching the array.
      const Tick latency = cfg_.timing.col_read_ns + cfg_.timing.burst_ns();
      if (tx.record) {
        stats_.demand_read_latency.add(latency);
        stats_.read_latency_hist.add(latency);
        bump(ctr_reads_forwarded_, "ctrl.reads_forwarded");
        if (tx.stream != 0) {
          SimStats::StreamSlice& slice = stats_.stream_slice(tx.stream);
          ++slice.reads_forwarded;
          slice.read_latency.add(latency);
        }
      }
      if (tx.arrival + latency > last_completion_) {
        last_completion_ = tx.arrival + latency;
      }
      return;
    }
    // Listed under its route now; relist_reads() moves it if a cache
    // retag changes that route while it waits.
    read_q_.push(tx, local_resource(arch_.route(tx.dec, tx.type, false)));
  } else {
    write_q_.push(tx, local_resource(arch_.route(tx.dec, tx.type, false)));
  }
  note_queue_depth();
  push_event(tx.arrival);
  // issue() skips the bus-free event when the queues go empty; a late
  // arrival that finds the bus held must restore it.
  if (bus_free_ > tx.arrival) push_event(bus_free_);
}

bool MemoryController::is_row_hit(const Transaction& tx) const {
  const unsigned r = arch_.route(tx.dec, tx.type, tx.internal);
  const auto open = bank(r).open_row();
  return open.has_value() && *open == tx.dec.row;
}

bool MemoryController::can_issue(const Transaction& tx, Tick now) const {
  if (tx.arrival > now) return false;  // not yet visible to the controller
  if (bus_free_ > now) return false;   // the channel's one data bus
  const unsigned r = arch_.route(tx.dec, tx.type, tx.internal);
  return bank(r).demand_ready_at(now, refresh_.write_pausing()) <= now;
}

bool MemoryController::issue_from(TransactionQueue& q, Tick now) {
  const Pick p = find_pick(q, now);
  if (p.idx == kNoPick) return false;
  issue(q.take(p.idx), now);
  return true;
}

// The straight-line scan: every entry in age order through the generic
// pick_transaction, with per-entry routing and timing checks. Only the
// audit build calls it, as the check on find_pick.
MemoryController::Pick MemoryController::find_pick_reference(
    const TransactionQueue& q, Tick now) const {
  Pick p;
  p.idx = pick_transaction(
      q, cfg_.sched,
      [&](const Transaction& tx) { return can_issue(tx, now); },
      [&](const Transaction& tx) { return is_row_hit(tx); });
  if (p.idx != kNoPick) {
    p.row_hit = is_row_hit(q.at(p.idx));
    p.arrival = q.at(p.idx).arrival;
  }
  return p;
}

MemoryController::Pick MemoryController::find_pick(TransactionQueue& q,
                                                   Tick now) {
  const Pick p = find_pick_indexed(q, now);
#ifdef WOMPCM_AUDIT
  audit_pick(q, now, p, "pick mismatch");
#endif
  return p;
}

// The indexed pick. Picks the same entry as find_pick_reference, but
// bails without a walk when the queue is empty, the bus is held, no
// listed bank is ready (occupancy mask vs readiness bitmap), or nothing
// that could produce a pick has happened since a failed pick
// (ScanCache); otherwise walk_lists() does the work.
MemoryController::Pick MemoryController::find_pick_indexed(
    TransactionQueue& q, Tick now) {
  if (q.empty() || bus_free_ > now || !ready_.intersects(q.bank_mask())) {
    return Pick{};
  }
  const ScanCache& sc = scan_cache_for(q);
  if (sc.valid && sc.epoch == scan_epoch_ && sc.listings == q.listings() &&
      now < sc.barrier) {
    return Pick{};
  }
  return walk_lists(q, now);
}

// Walks, in age order, the lists of the resources that are both ready and
// listed in `q`, each only as far as the end of the scan window, reading
// the queue's packed scan keys (sequence number, arrival, row). The oldest
// arrived entry of each list is its oldest issuable one; with row hits
// first, the list is walked on to its oldest arrived row hit. A list stops
// early at an entry younger than a row hit already found, and at its first
// not-yet-arrived entry when arrivals are monotone (everything after it on
// the list has not arrived either).
MemoryController::Pick MemoryController::walk_lists(TransactionQueue& q,
                                                    Tick now) {
  const bool monotone = q.arrivals_monotone();
  const bool row_hit_first = cfg_.sched.row_hit_first;
  const std::uint32_t window_end = q.seq_at(q.window_last());
  Pick hit;  // oldest issuable row hit (row_hit_first only)
  Pick any;  // oldest issuable entry
  std::uint32_t hit_seq = 0;
  std::uint32_t any_seq = 0;
  Tick barrier = kNeverTick;  // earliest unarrived entry met
  std::uint64_t steps = 0;
  q.for_each_listed(ready_, [&](unsigned r) {
    const auto open = banks_[r].open_row();
    for (auto pos = q.list_head(r); pos != TransactionQueue::kNoPos;
         pos = q.list_next(pos)) {
      const std::uint32_t seq = q.seq_at(pos);
      if (seq > window_end) break;
      if (hit.idx != kNoPick && seq > hit_seq) break;
      if (!row_hit_first && any.idx != kNoPick && seq > any_seq) break;
      ++steps;
      const Tick arrival = q.arrival_at(pos);
      if (arrival > now) {
        if (monotone) {
          if (arrival < barrier) barrier = arrival;
          break;
        }
        continue;
      }
      const bool row_hit = open.has_value() && *open == q.row_at(pos);
      if (row_hit_first && row_hit) {
        hit = Pick{pos, true, arrival};
        hit_seq = seq;
        break;
      }
      if (any.idx == kNoPick || seq < any_seq) {
        any = Pick{pos, row_hit, arrival};
        any_seq = seq;
      }
      if (!row_hit_first) break;
    }
  });
  scan_steps_ += steps;
  if (hit.idx != kNoPick) return hit;
  if (any.idx == kNoPick && monotone) {
    // Complete failure: remember it so the next pick is O(1) unless an
    // invalidating event intervenes. Non-monotone queues are skipped —
    // unarrived entries may be scattered, so no single barrier covers them.
    ScanCache& sc = scan_cache_for(q);
    sc.valid = true;
    sc.epoch = scan_epoch_;
    sc.listings = q.listings();
    sc.barrier = barrier;
  }
  return any;
}

bool MemoryController::issue_fcfs(Tick now) {
  const Pick r = find_pick(read_q_, now);
  const Pick w = find_pick(write_q_, now);
  if (r.idx == kNoPick && w.idx == kNoPick) return false;
  bool take_read;
  if (r.idx == kNoPick) {
    take_read = false;
  } else if (w.idx == kNoPick) {
    take_read = true;
  } else if (cfg_.sched.row_hit_first && r.row_hit != w.row_hit) {
    take_read = r.row_hit;  // FR-FCFS: an open-row hit goes first
  } else {
    take_read = r.arrival <= w.arrival;  // strict age order otherwise
  }
  if (take_read) {
    issue(read_q_.take(r.idx), now);
  } else {
    issue(write_q_.take(w.idx), now);
  }
  return true;
}

void MemoryController::issue(Transaction tx, Tick now) {
  IssuePlan plan = arch_.plan(tx.dec, tx.type, tx.internal, now);
  if (plan.retagged) relist_reads(tx.dec, plan.resource);
  Bank& bank = bank_mut(plan.resource);

  Tick pre = plan.pre_ns;
  if (bank.refreshing(now)) {
    // Write pausing: preempting the in-progress refresh costs the pause
    // penalty up front (the refresh completion is pushed back in
    // begin_demand).
    pre += cfg_.timing.pause_resume_ns;
    bump(ctr_refresh_pauses_, "ctrl.refresh_pauses");
  }
  const Tick activate =
      (bank.open_row().has_value() && *bank.open_row() == plan.row)
          ? 0
          : cfg_.timing.row_read_ns;
  Tick service = pre + activate + plan.post_ns;
  if (tx.type == AccessType::kRead) {
    service += cfg_.timing.col_read_ns + cfg_.timing.burst_ns();
  } else {
    service += cfg_.timing.burst_ns() + plan.program_ns;
  }

  const Tick finish = bank.begin_demand(now, service, plan.row,
                                        refresh_.write_pausing(),
                                        cfg_.timing.pause_resume_ns);
  if (cfg_.row_policy == RowPolicy::kClosed) bank.close_row();
  bus_free_ = now + cfg_.timing.burst_ns();
  bus_busy_time_ += cfg_.timing.burst_ns();
  if (finish > last_completion_) last_completion_ = finish;

  const unsigned lr = local_resource(plan.resource);
  ready_.clear(lr);
  wake_push(bank.busy_until(), lr);

  const Tick latency = finish - tx.arrival;
  if (tx.record) {
    if (tx.internal || tx.background) {
      stats_.internal_write_latency.add(latency);
    } else if (tx.type == AccessType::kRead) {
      stats_.demand_read_latency.add(latency);
      stats_.read_latency_hist.add(latency);
    } else {
      stats_.demand_write_latency.add(latency);
      stats_.write_latency_hist.add(latency);
    }
    if (tx.stream != 0 && !tx.internal && !tx.background) {
      (tx.type == AccessType::kRead
           ? stats_.stream_slice(tx.stream).read_latency
           : stats_.stream_slice(tx.stream).write_latency)
          .add(latency);
    }
  }

  for (const SpawnedWrite& s : plan.spawned) {
    Transaction victim;
    victim.id = next_internal_id_++;
    victim.dec = s.dec;
    victim.type = AccessType::kWrite;
    victim.arrival = now;
    victim.internal = true;
    victim.record = tx.record;
    internal_q_.push(victim,
                     local_resource(arch_.route(victim.dec, victim.type, true)));
    note_queue_depth();
    if (tx.record) bump(ctr_internal_writes_, "ctrl.internal_writes");
  }

  push_event(finish);
  // A tick at bus-free time can only matter if something is left to issue;
  // with every queue empty the instant is a no-op, and any later arrival
  // that finds the bus held re-schedules it (see enqueue).
  if (!drained()) push_event(bus_free_);
}

// plan() retagged the cache row of `dec` (its channel, rank and row) in
// cache array `cache`, so a queued read of that row may now hit where it
// missed or miss where it hit. A hit is listed under the cache array and a
// miss under its main bank, and only reads of the written bank can turn
// into hits, so those two lists hold every read whose route can change.
void MemoryController::relist_reads(const DecodedAddr& dec, unsigned cache) {
  // An internal write goes to the main bank of its row.
  const unsigned main = arch_.route(dec, AccessType::kWrite, true);
  for (const unsigned list : {local_resource(cache), local_resource(main)}) {
    for (auto pos = read_q_.list_head(list); pos != TransactionQueue::kNoPos;) {
      const auto next = read_q_.list_next(pos);
      if (read_q_.row_at(pos) == dec.row) {
        const Transaction& tx = read_q_.at(pos);
        const unsigned r = local_resource(arch_.route(tx.dec, tx.type, false));
        if (r != list) read_q_.relist(pos, r);
      }
      pos = next;
    }
  }
}

void MemoryController::enqueue_tier_writeback(const DecodedAddr& victim,
                                              Tick now, bool record) {
  Transaction wb;
  wb.id = next_internal_id_++;
  wb.dec = victim;
  wb.type = AccessType::kWrite;
  wb.arrival = now;
  wb.background = true;
  wb.record = record;
  enqueue(wb);
}

bool MemoryController::refresh_unit_ready(unsigned resource, Tick now) const {
  if (!bank(resource).idle(now)) return false;
  if (!cfg_.refresh.require_empty_queues) return true;
  // Every queued read and write is listed under its current route.
  const unsigned r = local_resource(resource);
  return !read_q_.listed(r) && !write_q_.listed(r);
}

void MemoryController::run_refresh(Tick now) {
  refresh_touched_.clear();
  auto bank_of = [this](unsigned resource) -> Bank& {
    refresh_touched_.push_back(resource);
    return bank_mut(resource);
  };
  auto unit_ready = [this, now](unsigned resource) {
    return refresh_unit_ready(resource, now);
  };
  const Tick f = refresh_.run(now, arch_, bank_of, unit_ready);
  if (f != 0) {
    push_event(f);
    if (f > last_completion_) last_completion_ = f;
    if (!pausing_) {
      // Without write pausing a refreshing bank blocks demand: reflect the
      // refresh window in the readiness bitmap.
      for (const unsigned r : refresh_touched_) {
        const unsigned lr = local_resource(r);
        ready_.clear(lr);
        wake_push(banks_[lr].refresh_until(), lr);
      }
    }
  }
  if (refresh_.next_check() != kNeverTick) {
    push_event(refresh_.next_check());
  }
}

void MemoryController::process_bank_wakes(Tick now) {
  while (!wake_heap_.empty() && wake_heap_.front().at <= now) {
    std::pop_heap(wake_heap_.begin(), wake_heap_.end(), WakeLater{});
    const BankWake w = wake_heap_.back();
    wake_heap_.pop_back();
    const Bank& b = banks_[w.resource];
    Tick at = b.busy_until();
    if (!pausing_ && b.refresh_until() > at) at = b.refresh_until();
    if (at <= now) {
      ready_.set(w.resource);
      ++scan_epoch_;
    } else {
      wake_push(at, w.resource);  // re-blocked since the wake was scheduled
    }
  }
}

void MemoryController::tick(Tick now) {
  assert(now >= last_tick_);
  last_tick_ = now;
  process_bank_wakes(now);

  // Run due PCM-refresh checks first: refresh only targets quiet ranks, so
  // pending demand work always wins.
  if (refresh_active_ && refresh_.next_check() <= now) run_refresh(now);

  // Issue until neither class can make progress at this instant. Internal
  // write-backs drain only when no demand transaction can go.
  for (;;) {
    bool issued = false;
    if (cfg_.sched.policy == SchedulingPolicy::kFcfs) {
      issued = issue_fcfs(now);
    } else {
      const bool writes_first =
          drain_.update(write_q_.size(), read_q_.size());
      if (writes_first) {
        issued = issue_from(write_q_, now) || issue_from(read_q_, now);
      } else {
        issued = issue_from(read_q_, now) || issue_from(write_q_, now);
      }
    }
    if (!issued) issued = issue_from(internal_q_, now);
    if (!issued) break;
  }

  next_event_ = events_.next_after(now);
}

Tick MemoryController::next_event_after(Tick now) {
  if (next_event_ != kNeverTick && next_event_ > now) return next_event_;
  next_event_ = events_.next_after(now);
  return next_event_;
}

#ifdef WOMPCM_AUDIT
void MemoryController::audit_pick(const TransactionQueue& q, Tick now,
                                  const Pick& got, const char* what) const {
  const Pick want = find_pick_reference(q, now);
  if (got.idx == want.idx && got.row_hit == want.row_hit &&
      got.arrival == want.arrival) {
    return;
  }
  auto show = [](const char* label, const Pick& p) {
    if (p.idx == kNoPick) {
      std::fprintf(stderr, " %s {none}", label);
    } else {
      std::fprintf(stderr, " %s {idx=%u row_hit=%d arrival=%llu}", label,
                   p.idx, p.row_hit ? 1 : 0,
                   static_cast<unsigned long long>(p.arrival));
    }
  };
  const char* queue = &q == &read_q_    ? "read"
                      : &q == &write_q_ ? "write"
                                        : "internal";
  std::fprintf(stderr, "controller audit: %s ch%u now=%llu %s queue:", what,
               channel_, static_cast<unsigned long long>(now), queue);
  show("indexed", got);
  show("reference", want);
  std::fputc('\n', stderr);
  std::abort();
}

void MemoryController::audit_skipped(Tick now) const {
  // Skipping the channel is the indexed path's claim that nothing can go.
  for (const TransactionQueue* q : {&read_q_, &write_q_, &internal_q_}) {
    audit_pick(*q, now, Pick{}, "skipped channel");
  }
  if (refresh_active_ && refresh_.next_check() <= now) {
    std::fprintf(stderr, "controller audit: skipped channel ch%u now=%llu "
                 "with a refresh check due at %llu\n", channel_,
                 static_cast<unsigned long long>(now),
                 static_cast<unsigned long long>(refresh_.next_check()));
    std::abort();
  }
}
#endif

void MemoryController::publish_metrics(MetricsRegistry& reg) const {
  reg.set_counter(channel_metric(channel_, "bus_busy_ns"),
                  bus_busy_time_);
  reg.set_counter(channel_metric(channel_, "max_queue_depth"),
                  max_queue_depth_);
  reg.set_counter(channel_metric(channel_, "refresh.commands"),
                  refresh_.commands());
  reg.set_counter(channel_metric(channel_, "refresh.rows"),
                  refresh_.rows_refreshed());
  reg.add_counter("refresh.commands", refresh_.commands());
  reg.add_counter("refresh.rows", refresh_.rows_refreshed());
  reg.add_counter("bus.busy_ns", bus_busy_time_);
  if (tier_ != nullptr) {
    const TierFront::Counters& t = tier_->counters();
    const struct {
      const char* name;
      std::uint64_t value;
    } rows[] = {
        {"tier.read_hits", t.read_hits},
        {"tier.read_misses", t.read_misses},
        {"tier.write_hits", t.write_hits},
        {"tier.write_misses", t.write_misses},
        {"tier.fills", t.fills},
        {"tier.evictions", t.evictions},
        {"tier.writebacks", t.writebacks},
        {"tier.dead_frames", t.dead_frames},
    };
    for (const auto& row : rows) {
      reg.set_counter(channel_metric(channel_, row.name), row.value);
      reg.add_counter(row.name, row.value);
    }
  }
}

}  // namespace wompcm
