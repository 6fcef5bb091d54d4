#include "controller/queues.h"

namespace wompcm {

namespace {

std::size_t pow2_at_least(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

TransactionQueue::TransactionQueue() { grow_slab(16); }

void TransactionQueue::configure(unsigned resources, std::size_t capacity,
                                 const MemoryGeometry* line_geom) {
  assert(empty());
  counts_.assign(resources, 0);
  mask_.resize(resources, false);
  unindexed_ = 0;
  const std::size_t cap = capacity < 8 ? 8 : capacity;
  slab_.clear();
  keys_.clear();
  prev_.clear();
  head_ = tail_ = free_ = kNoPos;
  grow_slab(cap);
  line_ids_.reset();
  lines_.clear();
  line_used_ = 0;
  if (line_geom != nullptr) {
    line_ids_.emplace(*line_geom);
    // 4x line-table slack so probes stay short at full occupancy.
    lines_.assign(pow2_at_least(cap * 4), LineCell{});
    line_mask_ = lines_.size() - 1;
  }
  monotone_ = true;
  has_pushed_ = false;
  last_push_arrival_ = 0;
  push_count_ = 0;
}

void TransactionQueue::grow_slab(std::size_t slots) {
  const std::size_t old = slab_.size();
  assert(slots >= old && slots < kFree);
  slab_.resize(slots);
  keys_.resize(slots);
  prev_.resize(slots, kFree);
  // Thread the new slots so the lowest index is popped first.
  for (std::size_t i = slots; i-- > old;) {
    keys_[i].next = free_;
    free_ = static_cast<Pos>(i);
  }
}

void TransactionQueue::push_impl(const Transaction& tx, unsigned resource) {
  if (free_ == kNoPos) grow_slab(slab_.size() * 2);
  const Pos p = free_;
  ScanKey& k = keys_[p];
  free_ = k.next;

  slab_[p] = tx;
  k.next = kNoPos;
  k.arrival = tx.arrival;
  k.row = tx.dec.row;
  k.hint_stamp = kNoStamp;  // reused slot: drop any stale route hint
  prev_[p] = tail_;
  if (tail_ == kNoPos) {
    head_ = p;
  } else {
    keys_[tail_].next = p;
  }
  tail_ = p;
  ++live_;
  ++push_count_;
  if (has_pushed_ && tx.arrival < last_push_arrival_) monotone_ = false;
  has_pushed_ = true;
  last_push_arrival_ = tx.arrival;
  if (line_ids_) line_add(line_ids_->line_id(tx.dec));
  if (resource != kNoResource && resource < counts_.size()) {
    k.resource = resource;
    if (counts_[resource]++ == 0) mask_.set(resource);
  } else {
    k.resource = kNoResource;
    ++unindexed_;
  }
}

Transaction TransactionQueue::take(Pos p) {
  assert(live(p));
  ScanKey& k = keys_[p];
  const Pos before = prev_[p];
  const Pos after = k.next;
  if (before == kNoPos) {
    head_ = after;
  } else {
    keys_[before].next = after;
  }
  if (after == kNoPos) {
    tail_ = before;
  } else {
    prev_[after] = before;
  }
  --live_;
  const Transaction& tx = slab_[p];
  if (line_ids_) line_remove(line_ids_->line_id(tx.dec));
  if (k.resource != kNoResource) {
    if (--counts_[k.resource] == 0) mask_.clear(k.resource);
  } else {
    --unindexed_;
  }
  prev_[p] = kFree;
  k.next = free_;
  free_ = p;
  return tx;
}

Tick TransactionQueue::oldest_arrival() const {
  Tick t = kNeverTick;
  for (Pos p = first(); p != kNoPos; p = next(p)) {
    const Tick a = keys_[p].arrival;
    if (a < t) t = a;
  }
  return t;
}

void TransactionQueue::line_add(std::uint64_t line) {
  if ((line_used_ + 1) * 2 > lines_.size()) grow_lines();
  std::size_t i = line_hash(line) & line_mask_;
  while (lines_[i].count != 0) {
    if (lines_[i].line == line) {
      ++lines_[i].count;
      return;
    }
    i = (i + 1) & line_mask_;
  }
  lines_[i].line = line;
  lines_[i].count = 1;
  ++line_used_;
}

void TransactionQueue::line_remove(std::uint64_t line) {
  std::size_t i = line_hash(line) & line_mask_;
  while (lines_[i].count != 0 && lines_[i].line != line) {
    i = (i + 1) & line_mask_;
  }
  assert(lines_[i].count != 0 && "line index out of sync with queue");
  if (--lines_[i].count != 0) return;
  --line_used_;
  // Backward-shift deletion: pull displaced entries over the hole so the
  // probe chain stays unbroken (no tombstones in the line table).
  std::size_t hole = i;
  std::size_t j = (i + 1) & line_mask_;
  while (lines_[j].count != 0) {
    const std::size_t home = line_hash(lines_[j].line) & line_mask_;
    if (((j - home) & line_mask_) >= ((j - hole) & line_mask_)) {
      lines_[hole] = lines_[j];
      hole = j;
    }
    j = (j + 1) & line_mask_;
  }
  lines_[hole].count = 0;
}

bool TransactionQueue::line_find(std::uint64_t line) const {
  std::size_t i = line_hash(line) & line_mask_;
  while (lines_[i].count != 0) {
    if (lines_[i].line == line) return true;
    i = (i + 1) & line_mask_;
  }
  return false;
}

void TransactionQueue::grow_lines() {
  std::vector<LineCell> old;
  old.swap(lines_);
  lines_.assign(old.size() * 2, LineCell{});
  line_mask_ = lines_.size() - 1;
  line_used_ = 0;
  for (const LineCell& c : old) {
    if (c.count == 0) continue;
    std::size_t i = line_hash(c.line) & line_mask_;
    while (lines_[i].count != 0) i = (i + 1) & line_mask_;
    lines_[i] = c;
    ++line_used_;
  }
}

}  // namespace wompcm
