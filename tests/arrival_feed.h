// Test helper that delivers transactions the way SimService does: each one
// is enqueued at its arrival instant, just before the tick at that instant,
// and the events in between run as the controller schedules them.
//
//   ArrivalFeed feed;
//   feed.add(tx);               // any arrival order; ties keep add order
//   feed.run(ctrl, 3999);       // every instant up to and including 3999
//   feed.add(later_tx);         // arriving after the last instant run
//   feed.run(ctrl);             // on to quiescence
//
// The sink is a MemoryController or a MemorySystem. The first run() ticks
// instant 0, so entries a test enqueued directly at t=0 are ticked too.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "common/types.h"
#include "controller/transaction.h"

namespace wompcm {

class ArrivalFeed {
 public:
  // Queues `tx` for delivery at tx.arrival, which must come after the
  // last instant run.
  void add(const Transaction& tx) {
    EXPECT_TRUE(!ticked_ || tx.arrival > now_)
        << "transaction " << tx.id << " arrives at " << tx.arrival
        << ", not after the instant " << now_ << " already run";
    pending_.emplace(tx.arrival, tx);
  }

  // Runs `sink` through every instant up to and including `until`: the
  // arrival instants of the queued transactions and the sink's events.
  // Returns the last instant ticked.
  template <typename Sink>
  Tick run(Sink& sink, Tick until = kNeverTick) {
    Tick t = ticked_ ? next_instant(sink) : 0;
    while (t != kNeverTick && t <= until) {
      for (auto it = pending_.begin();
           it != pending_.end() && it->first == t;
           it = pending_.erase(it)) {
        sink.enqueue(it->second);
      }
      sink.tick(t);
      now_ = t;
      ticked_ = true;
      t = next_instant(sink);
    }
    return now_;
  }

 private:
  template <typename Sink>
  Tick next_instant(Sink& sink) {
    const Tick event = sink.next_event_after(now_);
    return pending_.empty() ? event : std::min(event, pending_.begin()->first);
  }

  std::multimap<Tick, Transaction> pending_;  // by arrival, then add order
  Tick now_ = 0;        // the last instant ticked
  bool ticked_ = false;
};

}  // namespace wompcm
