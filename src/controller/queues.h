// Read / write transaction queues with age order and a per-bank index.
//
// The queue is the controller's hottest data structure: every read
// enqueue probes the write queue for read-forwarding, and every scheduler
// pick looks for the oldest issuable entry among the first `window`
// entries in age order. The representation is built for those two paths:
//
//  - Storage is a slab of slots sized to the configured capacity. Live
//    slots are threaded oldest-to-newest by a doubly-linked age list and
//    free slots by a free list, so push() pops a free slot and links it
//    at the tail, take() unlinks any entry in O(1), and next() is a single
//    load. There are no dead slots to step over and nothing to compact.
//    The slab grows (doubling) only when the queue holds more than its
//    capacity; a slot index (`Pos`) stays valid until its entry is taken,
//    across any number of other pushes, takes and growths.
//  - Every entry is listed under one resource (the bank-shaped unit it
//    will occupy). Each resource keeps a circular doubly-linked list of its
//    entries in age order (the oldest entry's older neighbour is the
//    newest, so one head per resource finds both ends), threaded through
//    the same packed 32-byte scan keys that hold each entry's age-list
//    link, arrival, row and push sequence number, so a scheduler reads the
//    lists without touching a Transaction. A BankBitmap occupancy mask
//    marks the resources with at least one entry, and a summary word marks
//    the mask's nonzero words, so for_each_listed() reaches the listed
//    resources of a readiness mask without scanning empty words.
//  - The scan window (the first min(size, window) entries in age order)
//    is tracked by its newest entry. An entry is inside it when its
//    sequence number is at most that entry's, and a take() from inside it
//    moves the boundary one entry on, in O(1).
//  - An entry whose resource changes while it waits (a WCPCM read whose
//    cache row was retagged) is moved with relist(), which keeps it in age
//    order on its new list.
//  - A queue configured with a line index (the write queue) keeps a
//    linear-probe hash of packed line ids (AddressMapper::line_id, with
//    per-line counts and backward-shift deletion), so contains_line() is
//    O(1) instead of a scan over the queue. Other queues skip the index.
//
// The queue stores each entry's arrival but does not interpret it: the
// controller pushes an entry only at its arrival instant
// (controller/controller.h), so every queued entry has arrived.
#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <optional>
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

  // Window size of a queue whose scan window is the whole queue.
  static constexpr std::size_t kWholeQueue = ~std::size_t{0};

  // An empty queue; configure() sizes it before the first push.
  TransactionQueue();

  // Sizes the slab and indexes for a queue holding up to `capacity`
  // entries over `resources` bank-shaped resources, with a scan window of
  // the first `window` (>= 1) entries. With `line_geom`, the queue also
  // indexes its entries' lines under that geometry, for contains_line().
  // Allocates; must be called while empty. Exceeding `capacity` is allowed
  // but allocates on push.
  void configure(unsigned resources, std::size_t capacity,
                 const MemoryGeometry* line_geom = nullptr,
                 std::size_t window = kWholeQueue);

  // Appends `tx`, listed under `resource` (< resources).
  void push(const Transaction& tx, unsigned resource);

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
  // Resource the entry is listed under.
  unsigned resource_at(Pos p) const { return live_key(p).resource; }
  // Push order: a larger sequence number is a younger entry.
  std::uint32_t seq_at(Pos p) const { return live_key(p).seq; }

  // Age-order iteration over the entries listed under `resource`:
  //   for (auto p = q.list_head(r); p != kNoPos; p = q.list_next(p))
  Pos list_head(unsigned resource) const { return heads_[resource]; }
  Pos list_next(Pos p) const {
    const ScanKey& k = live_key(p);
    return k.rnext == heads_[k.resource] ? kNoPos : k.rnext;
  }
  bool listed(unsigned resource) const { return heads_[resource] != kNoPos; }

  // Newest entry of the scan window (kNoPos when empty): the
  // min(size, window)-th live entry in age order.
  Pos window_last() const { return win_last_; }
  bool in_window(Pos p) const {
    return live_key(p).seq <= keys_[win_last_].seq;
  }

  // Calls visit(resource) for every resource that has a listed entry and
  // is set in `filter` (sized over the same resources), in ascending order.
  template <typename Visit>
  void for_each_listed(const BankBitmap& filter, Visit&& visit) const {
    for (std::uint64_t groups = summary_; groups != 0; groups &= groups - 1) {
      const std::size_t g = static_cast<std::size_t>(std::countr_zero(groups));
      const std::size_t end = std::min((g + 1) << group_shift_, mask_.words());
      for (std::size_t w = g << group_shift_; w < end; ++w) {
        for (std::uint64_t bits = mask_.word(w) & filter.word(w); bits != 0;
             bits &= bits - 1) {
          visit(static_cast<unsigned>(w * 64 + std::countr_zero(bits)));
        }
      }
    }
  }

  Transaction take(Pos p);

  // Moves a live entry to `resource`'s list, in age order there. Its age
  // order in the queue and its place in the window do not change.
  void relist(Pos p, unsigned resource);

  // True if some queued transaction targets the line at `d` (used for
  // write-to-read forwarding). O(1) via the line index; the queue must
  // have been configured with one.
  bool contains_line(const DecodedAddr& d) const {
    assert(line_ids_.has_value());
    return line_find(line_ids_->line_id(d));
  }

  // Occupancy mask over resources with at least one listed entry.
  const BankBitmap& bank_mask() const { return mask_; }

 private:
  // prev_ value of a slot on the free list (kNoPos marks the list head).
  static constexpr Pos kFree = kNoPos - 1;

  // The per-entry fields a scheduler reads, packed apart from the
  // Transaction. For a free slot, `next` links the free list instead.
  struct ScanKey {
    Pos next = kNoPos;     // newer neighbour in age order
    unsigned resource = 0;  // the list the entry is on
    Tick arrival = 0;
    unsigned row = 0;
    Pos rnext = kNoPos;     // newer neighbour on the list (newest: the oldest)
    Pos rprev = kNoPos;     // older neighbour on the list (oldest: the newest)
    std::uint32_t seq = 0;  // push order (renumbered if it would wrap)
  };
  static_assert(sizeof(ScanKey) == 32, "scan key must stay packed");

  struct LineCell {
    std::uint64_t line = 0;
    std::uint32_t count = 0;  // 0 marks an empty cell
  };

  bool live(Pos p) const { return p < prev_.size() && prev_[p] != kFree; }
  const ScanKey& live_key(Pos p) const {
    assert(live(p));
    return keys_[p];
  }

  // Resizes the slab to `slots` (>= its current size) and threads the new
  // slots onto the free list.
  void grow_slab(std::size_t slots);
  // Links `p` into `resource`'s list in sequence order / unlinks it from
  // its list, keeping the occupancy mask and summary in step.
  void list_insert(Pos p, unsigned resource);
  void list_remove(Pos p);
  // Reassigns sequence numbers 0, 1, ... in age order.
  void renumber();

  static std::size_t line_hash(std::uint64_t line) {
    std::uint64_t h = static_cast<std::uint64_t>(line) * 0x9E3779B97F4A7C15ull;
    return static_cast<std::size_t>(h ^ (h >> 29));
  }
  void line_add(std::uint64_t line);
  void line_remove(std::uint64_t line);
  bool line_find(std::uint64_t line) const;
  void grow_lines();

  // Slot-parallel arrays: the entry, its scan key, and its older
  // neighbour in age order (kFree while the slot is on the free list).
  std::vector<Transaction> slab_;
  std::vector<ScanKey> keys_;
  std::vector<Pos> prev_;
  Pos head_ = kNoPos;      // oldest live entry
  Pos tail_ = kNoPos;      // newest live entry
  Pos free_ = kNoPos;      // most recently freed slot
  Pos win_last_ = kNoPos;  // newest entry of the scan window
  std::size_t live_ = 0;
  std::size_t window_ = kWholeQueue;
  std::uint32_t next_seq_ = 0;

  std::vector<Pos> heads_;  // oldest entry listed per resource
  BankBitmap mask_;
  // Bit g is set while mask words [g << group_shift_, (g + 1) <<
  // group_shift_) hold a set bit; the shift keeps every group in one word.
  std::uint64_t summary_ = 0;
  unsigned group_shift_ = 0;

  // The line index, when configured: line ids are packed under
  // `line_ids_`'s geometry into a linear-probe hash of power-of-two size.
  // Kept last, behind the fields every push, take and scan reads.
  std::optional<AddressMapper> line_ids_;
  std::vector<LineCell> lines_;
  std::size_t line_mask_ = 0;
  std::size_t line_used_ = 0;
};

}  // namespace wompcm
