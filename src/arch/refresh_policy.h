// Refresh policy: the row-address-table (RAT) bookkeeping shared by every
// refreshable region (Section 3.2 main memory, Section 4's WOM-cache).
//
// A RAT is a small per-unit ring of entries pending burst re-initialization
// ("unit" is a main bank or one per-rank cache array; an entry is whatever
// key the region refreshes by — a row key for main rows, a row index for
// cache rows). Touching an entry moves it to the back; the oldest entry
// falls off when the table is full. The two paper designs drain their
// tables from opposite ends: main memory serves the most recently recorded
// row first (it is the hottest, and the most likely to take its alpha-write
// soon), the WOM-cache re-initializes oldest-first as it cycles the small
// array continuously.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "common/function_ref.h"
#include "stats/stats.h"

namespace wompcm {

class RatRefreshPolicy final {
 public:
  enum class ServeOrder : std::uint8_t {
    kNewestFirst,  // pop from the back (main-memory RATs, Section 3.2)
    kOldestFirst,  // pop from the front (the WOM-cache's table, Section 4)
  };

  // Each unit's table holds `entries` (>= 1) rows. `counters` outlives the
  // policy; rat.insert / rat.evict / rat.stale_pop are accounted there.
  RatRefreshPolicy(unsigned units, unsigned entries, ServeOrder order,
                   CounterSet* counters);

  // Records that `entry` of `unit` reached the rewrite limit: re-touching
  // moves it to the back, the oldest entry is evicted when full.
  void touch(unsigned unit, std::uint64_t entry);

  // True when the unit has at least one row pending re-initialization.
  bool pending(unsigned unit) const { return !rat_[unit].empty(); }
  std::size_t size(unsigned unit) const { return rat_[unit].size(); }
  std::size_t units() const { return rat_.size(); }

  // Pops entries in serve order until `refresh_entry` accepts one or the
  // table drains; refused pops (rows a demand alpha-write already reset, or
  // rows retired by the fault model) count as rat.stale_pop. Returns true
  // when an entry was refreshed.
  bool refresh_one(unsigned unit,
                   FunctionRef<bool(std::uint64_t)> refresh_entry);

 private:
  void bump(std::uint64_t*& slot, const char* name) {
    if (slot == nullptr) slot = counters_->slot(name);
    ++*slot;
  }

  unsigned entries_;
  ServeOrder order_;
  std::vector<std::deque<std::uint64_t>> rat_;
  CounterSet* counters_;
  // Lazily-bound counter slots (see Architecture::bump).
  std::uint64_t* ctr_insert_ = nullptr;
  std::uint64_t* ctr_evict_ = nullptr;
  std::uint64_t* ctr_stale_pop_ = nullptr;
};

}  // namespace wompcm
