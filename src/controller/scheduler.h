// Transaction scheduling policy: read priority with write-queue drain
// hysteresis, and FR-FCFS-lite candidate selection (row hits first within a
// class, oldest first otherwise).
#pragma once

#include <cstddef>
#include <string>

#include "controller/queues.h"

namespace wompcm {

// How reads and writes compete for issue slots.
//
// kFcfs issues strictly by age across both queues (DRAMSim2's default and
// what the paper's latency shape implies: reads block behind in-flight
// writes, so cutting write latency cuts read latency almost as much).
// kReadPriority serves reads first and drains writes by watermark — a
// modern policy kept as an ablation (see bench/ablation_organization).
enum class SchedulingPolicy : std::uint8_t { kFcfs, kReadPriority };

const char* to_string(SchedulingPolicy p);

struct SchedulerConfig {
  SchedulingPolicy policy = SchedulingPolicy::kFcfs;
  // kReadPriority only — write-drain hysteresis: start draining when the
  // write queue reaches `write_q_high`, stop once it falls to `write_q_low`.
  unsigned write_q_high = 48;
  unsigned write_q_low = 16;
  // Prefer transactions whose target row is already open (FR-FCFS-lite).
  bool row_hit_first = true;
  // How many queue entries (in age order) the scheduler considers per pass.
  unsigned scan_limit = 64;

  bool valid(std::string* why = nullptr) const;
};

inline constexpr TransactionQueue::Pos kNoPick = TransactionQueue::kNoPos;

// Selects the queue position to issue: the oldest issuable row-hit if
// `row_hit_first`, otherwise the oldest issuable entry within the scan
// window. `can_issue(tx)` must be side-effect free; `is_row_hit(tx)` is only
// consulted for issuable entries. This is the straight-line scan; the
// controller's indexed fast path must pick the same entry (audit build).
template <typename CanIssue, typename IsRowHit>
TransactionQueue::Pos pick_transaction(const TransactionQueue& q,
                                       const SchedulerConfig& cfg,
                                       CanIssue&& can_issue,
                                       IsRowHit&& is_row_hit) {
  const std::size_t n =
      q.size() < cfg.scan_limit ? q.size() : cfg.scan_limit;
  TransactionQueue::Pos first_issuable = kNoPick;
  std::size_t seen = 0;
  for (auto p = q.first(); p != TransactionQueue::kNoPos && seen < n;
       p = q.next(p), ++seen) {
    const Transaction& tx = q.at(p);
    if (!can_issue(tx)) continue;
    if (!cfg.row_hit_first) return p;
    if (is_row_hit(tx)) return p;
    if (first_issuable == kNoPick) first_issuable = p;
  }
  return first_issuable;
}

// Tracks the drain-mode hysteresis bit.
class WriteDrainPolicy {
 public:
  explicit WriteDrainPolicy(const SchedulerConfig& cfg) : cfg_(cfg) {}

  // Updates and returns whether the controller should prefer writes.
  bool update(std::size_t write_q_size, std::size_t read_q_size);
  bool draining() const { return draining_; }

 private:
  SchedulerConfig cfg_;
  bool draining_ = false;
};

}  // namespace wompcm
