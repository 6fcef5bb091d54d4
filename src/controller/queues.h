// Read / write transaction queues with age order and indexed lookup.
//
// The queue is the controller's hottest data structure: every enqueue
// probes the write queue for read-forwarding, and every scheduler scan
// walks entries in age order. The representation is built for those two
// paths:
//
//  - Storage is a slab of slots sized to the configured capacity. Live
//    slots are threaded oldest-to-newest by a doubly-linked age list and
//    free slots by a free list, so push() pops a free slot and links it
//    at the tail, take() unlinks any entry in O(1), and next() is a single
//    load. There are no dead slots to step over and nothing to compact.
//    The slab grows (doubling) only when the queue holds more than its
//    capacity; a slot index (`Pos`) stays valid until its entry is taken,
//    across any number of other pushes, takes and growths.
//  - Everything a scheduler scan reads per entry (the age-list link,
//    arrival, the resource cached at push time, the row, and the cached
//    dynamic route with its stamp) sits in a packed 32-byte key parallel
//    to the slab, so a scan touches the full Transaction only when it must
//    re-probe a dynamic route.
//  - A linear-probe hash of line addresses (with per-line counts and
//    backward-shift deletion) makes contains_line() O(1) instead of a
//    scan over the queue.
//  - Entries pushed with a resource id maintain per-resource counts and a
//    BankBitmap occupancy mask, so a scheduler can test "does this queue
//    target any ready bank?" in a few word operations before touching a
//    single entry. Entries whose routing is dynamic (it can change while
//    they wait, e.g. WCPCM demand reads that probe mutable cache tags) are
//    pushed with kNoResource and counted in unindexed(); while any are
//    present the mask is a subset of the queue's targets, not the whole
//    set, and mask-based early-outs must be skipped.
//
// The queue also tracks whether pushes arrived in non-decreasing arrival
// order (arrivals_monotone()); schedulers may stop an age-order scan at
// the first not-yet-arrived entry only when that holds.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "controller/transaction.h"
#include "pcm/rank.h"

namespace wompcm {

class TransactionQueue {
 public:
  // Stable handle for a queued entry: its slab slot. Valid until the entry
  // is taken.
  using Pos = std::uint32_t;
  static constexpr Pos kNoPos = ~Pos{0};

  // Resource id for entries whose routing is unknown or dynamic.
  static constexpr unsigned kNoResource = ~0u;

  TransactionQueue();

  // Sizes the slab and indexes for a queue holding up to `capacity`
  // entries over `resources` bank-shaped resources, with the line index
  // keyed at `line_bytes` granularity. Allocates; must be called while
  // empty. Exceeding `capacity` is allowed but allocates on push.
  void configure(unsigned line_bytes, unsigned resources,
                 std::size_t capacity);

  void push(const Transaction& tx) { push_impl(tx, kNoResource); }
  void push(const Transaction& tx, unsigned resource) {
    push_impl(tx, resource);
  }

  bool empty() const { return live_ == 0; }
  std::size_t size() const { return live_; }

  // Age-order iteration over live entries:
  //   for (auto p = q.first(); p != TransactionQueue::kNoPos; p = q.next(p))
  Pos first() const { return head_; }
  Pos next(Pos p) const { return live_key(p).next; }

  const Transaction& at(Pos p) const {
    assert(live(p));
    return slab_[p];
  }

  // Scan keys of a live entry, read without touching the Transaction.
  Tick arrival_at(Pos p) const { return live_key(p).arrival; }
  unsigned row_at(Pos p) const { return live_key(p).row; }
  // Resource recorded at push time (kNoResource for dynamic routes).
  unsigned resource_at(Pos p) const { return live_key(p).resource; }

  // Cached route for a dynamically-routed entry: valid only while `version`
  // matches the stamp it was recorded under (see
  // Architecture::route_version). Returns kNoResource when nothing current
  // is cached, so schedulers fall back to recomputing the route.
  unsigned route_hint(Pos p, std::uint64_t version) const {
    const ScanKey& k = live_key(p);
    return k.hint_stamp == version ? k.hint : kNoResource;
  }
  void set_route_hint(Pos p, unsigned r, std::uint64_t version) {
    assert(live(p));
    keys_[p].hint = r;
    keys_[p].hint_stamp = version;
  }

  Transaction take(Pos p);

  // True if some queued transaction covers the same line address
  // (used for write-to-read forwarding). O(1) via the line index when
  // `line_bytes` matches the configured granularity.
  bool contains_line(Addr addr, unsigned line_bytes) const;

  // Oldest arrival time in the queue (kNeverTick when empty).
  Tick oldest_arrival() const;

  // Occupancy mask over resources with at least one indexed entry.
  const BankBitmap& bank_mask() const { return mask_; }

  // Number of live entries pushed without a (stable) resource.
  std::size_t unindexed() const { return unindexed_; }

  // True while every push so far arrived in non-decreasing arrival order.
  bool arrivals_monotone() const { return monotone_; }

  // Total pushes over the queue's lifetime (takes do not count). Lets a
  // scheduler detect "no entry was added since my last scan" — removals
  // only shrink the schedulable set, so a failed scan stays failed.
  std::uint64_t pushes() const { return push_count_; }

 private:
  // Stamp value no live route_version can take (versions count up from 0).
  static constexpr std::uint64_t kNoStamp = ~std::uint64_t{0};
  // prev_ value of a slot on the free list (kNoPos marks the list head).
  static constexpr Pos kFree = kNoPos - 1;

  // The per-entry fields a scheduler scan reads, packed apart from the
  // Transaction. For a free slot, `next` links the free list instead.
  struct ScanKey {
    Pos next = kNoPos;                    // newer neighbour in age order
    unsigned resource = kNoResource;      // cached at push time
    Tick arrival = 0;
    unsigned row = 0;
    unsigned hint = kNoResource;          // cached dynamic route
    std::uint64_t hint_stamp = kNoStamp;  // route_version it was cached at
  };
  static_assert(sizeof(ScanKey) == 32, "scan key must stay packed");

  struct LineCell {
    Addr line = 0;
    std::uint32_t count = 0;  // 0 marks an empty cell
  };

  bool live(Pos p) const { return p < prev_.size() && prev_[p] != kFree; }
  const ScanKey& live_key(Pos p) const {
    assert(live(p));
    return keys_[p];
  }

  void push_impl(const Transaction& tx, unsigned resource);
  // Resizes the slab to `slots` (>= its current size) and threads the new
  // slots onto the free list.
  void grow_slab(std::size_t slots);

  static std::size_t line_hash(Addr line) {
    std::uint64_t h = static_cast<std::uint64_t>(line) * 0x9E3779B97F4A7C15ull;
    return static_cast<std::size_t>(h ^ (h >> 29));
  }
  void line_add(Addr line);
  void line_remove(Addr line);
  bool line_find(Addr line) const;
  void grow_lines();

  // Slot-parallel arrays: the entry, its scan key, and its older
  // neighbour in age order (kFree while the slot is on the free list).
  std::vector<Transaction> slab_;
  std::vector<ScanKey> keys_;
  std::vector<Pos> prev_;
  Pos head_ = kNoPos;  // oldest live entry
  Pos tail_ = kNoPos;  // newest live entry
  Pos free_ = kNoPos;  // most recently freed slot
  std::size_t live_ = 0;

  std::vector<LineCell> lines_;  // linear-probe hash, power-of-two size
  std::size_t line_mask_ = 0;
  std::size_t line_used_ = 0;
  unsigned line_bytes_ = 64;

  std::vector<std::uint32_t> counts_;  // live entries per resource
  BankBitmap mask_;
  std::size_t unindexed_ = 0;

  bool monotone_ = true;
  bool has_pushed_ = false;
  Tick last_push_arrival_ = 0;
  std::uint64_t push_count_ = 0;
};

}  // namespace wompcm
