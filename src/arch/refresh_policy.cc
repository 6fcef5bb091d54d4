#include "arch/refresh_policy.h"

#include <algorithm>
#include <cassert>

namespace wompcm {

RatRefreshPolicy::RatRefreshPolicy(unsigned units, unsigned entries,
                                   ServeOrder order, CounterSet* counters)
    : entries_(entries), order_(order), rat_(units), counters_(counters) {
  assert(entries_ >= 1);
}

void RatRefreshPolicy::touch(unsigned unit, std::uint64_t entry) {
  auto& q = rat_[unit];
  const auto it = std::find(q.begin(), q.end(), entry);
  if (it != q.end()) {
    q.erase(it);
  } else {
    bump(ctr_insert_, "rat.insert");
  }
  q.push_back(entry);
  if (q.size() > entries_) {
    q.pop_front();
    bump(ctr_evict_, "rat.evict");
  }
}

bool RatRefreshPolicy::refresh_one(
    unsigned unit, FunctionRef<bool(std::uint64_t)> refresh_entry) {
  auto& q = rat_[unit];
  while (!q.empty()) {
    std::uint64_t entry;
    if (order_ == ServeOrder::kNewestFirst) {
      entry = q.back();
      q.pop_back();
    } else {
      entry = q.front();
      q.pop_front();
    }
    if (refresh_entry(entry)) return true;
    bump(ctr_stale_pop_, "rat.stale_pop");
  }
  return false;
}

}  // namespace wompcm
