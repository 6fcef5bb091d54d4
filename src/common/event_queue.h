// The shared event kernel of the simulator.
//
// Every layer of the memory system is event-stepped: work happens at
// discrete instants, and between instants each component only needs to
// answer "when could anything next happen?". Two small types capture that
// protocol in one place:
//
//  - EventQueue: a min-heap of future instants. Components push the
//    instants at which they could next do work (the memory controller
//    pushes only those at which an issue or a refresh check can happen);
//    next_after(now) discards everything already reached and reports the
//    earliest pending instant (kNeverTick when quiescent). The heap is a plain vector so callers on
//    the hot path can reserve() once and stay off the allocator, and
//    peek() exposes the earliest scheduled instant without popping.
//  - Clock: the monotone simulation clock of a driving loop. advance()
//    jumps to the earliest of the candidate instants offered by the layers
//    below (arrivals, controller events, ...) and refuses to move when all
//    of them are kNeverTick — the loop's quiescence condition.
#pragma once

#include <algorithm>
#include <functional>
#include <initializer_list>
#include <vector>

#include "common/types.h"

namespace wompcm {

class EventQueue {
 public:
  // Schedules an instant. kNeverTick is accepted and ignored, so callers
  // can forward "maybe a time" values without branching.
  void schedule(Tick t) {
    if (t == kNeverTick) return;
    heap_.push_back(t);
    std::push_heap(heap_.begin(), heap_.end(), std::greater<Tick>{});
  }

  // Earliest scheduled instant strictly in the future of `now`; instants
  // at or before `now` are dropped (they were handled by the tick that
  // advanced the clock there). Returns kNeverTick when nothing is pending.
  Tick next_after(Tick now);

  // Earliest scheduled instant, including ones at or before the current
  // time (kNeverTick when empty). Does not modify the queue.
  Tick peek() const { return heap_.empty() ? kNeverTick : heap_.front(); }

  // Pre-sizes the backing store so steady-state scheduling never allocates.
  void reserve(std::size_t n) { heap_.reserve(n); }

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }

 private:
  std::vector<Tick> heap_;  // binary min-heap via std::push_heap/pop_heap
};

// Earliest of two instants (kNeverTick is the identity).
inline Tick earliest(Tick a, Tick b) { return a < b ? a : b; }

class Clock {
 public:
  Tick now() const { return now_; }

  // Advances to the earliest candidate instant (clamped to never move
  // backwards). Returns false and stays put when every candidate is
  // kNeverTick: nothing can ever happen again.
  bool advance(std::initializer_list<Tick> candidates);

 private:
  Tick now_ = 0;
};

}  // namespace wompcm
