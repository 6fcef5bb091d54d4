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
                                 const MemoryGeometry* line_geom,
                                 std::size_t window) {
  assert(empty());
  assert(window >= 1);
  heads_.assign(resources, kNoPos);
  mask_.resize(resources, false);
  summary_ = 0;
  group_shift_ = 0;
  while ((mask_.words() >> group_shift_) > 64) ++group_shift_;
  window_ = window;
  win_last_ = kNoPos;
  next_seq_ = 0;
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
  listings_ = 0;
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

void TransactionQueue::list_insert(Pos p, unsigned resource) {
  ScanKey& k = keys_[p];
  k.resource = resource;
  const Pos head = heads_[resource];
  if (head == kNoPos) {
    heads_[resource] = k.rnext = k.rprev = p;
    mask_.set(resource);
    summary_ |= std::uint64_t{1} << ((resource / 64) >> group_shift_);
    return;
  }
  // Link in after the newest older entry, walking back from the newest: a
  // push links in after it at once. With no older entry, `p` goes after
  // the newest (before the oldest) and becomes the head.
  Pos before = keys_[head].rprev;
  while (keys_[before].seq > k.seq && before != head) {
    before = keys_[before].rprev;
  }
  if (keys_[before].seq > k.seq) {
    before = keys_[head].rprev;
    heads_[resource] = p;
  }
  k.rprev = before;
  k.rnext = keys_[before].rnext;
  keys_[k.rnext].rprev = p;
  keys_[before].rnext = p;
}

void TransactionQueue::list_remove(Pos p) {
  const ScanKey& k = keys_[p];
  if (k.rnext != p) {
    keys_[k.rprev].rnext = k.rnext;
    keys_[k.rnext].rprev = k.rprev;
    if (heads_[k.resource] == p) heads_[k.resource] = k.rnext;
    return;
  }
  heads_[k.resource] = kNoPos;
  mask_.clear(k.resource);
  const std::size_t g = (k.resource / 64) >> group_shift_;
  const std::size_t end = std::min((g + 1) << group_shift_, mask_.words());
  for (std::size_t w = g << group_shift_; w < end; ++w) {
    if (mask_.word(w) != 0) return;
  }
  summary_ &= ~(std::uint64_t{1} << g);
}

void TransactionQueue::renumber() {
  std::uint32_t seq = 0;
  for (Pos p = head_; p != kNoPos; p = keys_[p].next) keys_[p].seq = seq++;
  next_seq_ = seq;
}

void TransactionQueue::push(const Transaction& tx, unsigned resource) {
  assert(resource < heads_.size());
  if (free_ == kNoPos) grow_slab(slab_.size() * 2);
  const Pos p = free_;
  ScanKey& k = keys_[p];
  free_ = k.next;

  slab_[p] = tx;
  k.next = kNoPos;
  k.arrival = tx.arrival;
  k.row = tx.dec.row;
  k.seq = next_seq_;
  prev_[p] = tail_;
  if (tail_ == kNoPos) {
    head_ = p;
  } else {
    keys_[tail_].next = p;
  }
  tail_ = p;
  if (++next_seq_ == 0) renumber();  // numbers ran out: restart them
  ++live_;
  if (live_ <= window_) win_last_ = p;
  ++listings_;
  if (has_pushed_ && tx.arrival < last_push_arrival_) monotone_ = false;
  has_pushed_ = true;
  last_push_arrival_ = tx.arrival;
  if (line_ids_) line_add(line_ids_->line_id(tx.dec));
  list_insert(p, resource);
}

Transaction TransactionQueue::take(Pos p) {
  assert(live(p));
  ScanKey& k = keys_[p];
  // Leaving a full window lets the oldest entry past it in.
  if (live_ > window_ && in_window(p)) {
    win_last_ = keys_[win_last_].next;
  }
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
  if (--live_ < window_) win_last_ = tail_;  // the window is the queue
  list_remove(p);
  const Transaction& tx = slab_[p];
  if (line_ids_) line_remove(line_ids_->line_id(tx.dec));
  prev_[p] = kFree;
  k.next = free_;
  free_ = p;
  // The window holds min(size, window) entries and ends on a live one.
  assert((live_ == 0) == (win_last_ == kNoPos));
  assert(live_ == 0 || live(win_last_));
  assert(live_ > window_ || win_last_ == tail_);
  assert(live_ <= window_ || win_last_ != tail_);
  return tx;
}

void TransactionQueue::relist(Pos p, unsigned resource) {
  assert(live(p) && resource < heads_.size());
  list_remove(p);
  list_insert(p, resource);
  ++listings_;
  // The entry sits between its list neighbours in age order.
  [[maybe_unused]] const ScanKey& k = keys_[p];
  assert(heads_[resource] == p || keys_[k.rprev].seq < k.seq);
  assert(heads_[resource] == k.rnext || keys_[k.rnext].seq > k.seq);
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
