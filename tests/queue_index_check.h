// Checks a TransactionQueue's bank index against a model of its live
// entries, for the queue churn tests.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <vector>

#include "controller/queues.h"

namespace wompcm {

// A live entry as the model sees it: its handle and its resource.
struct ListedEntry {
  TransactionQueue::Pos pos = TransactionQueue::kNoPos;
  unsigned resource = 0;
};

// `model` holds the live entries in age order. Checks that each entry
// reports its resource; that every resource's list holds exactly the
// model's entries on that resource, oldest first; that the occupancy mask
// and for_each_listed() name exactly the resources with entries; and that
// the scan window ends at the min(size, window)-th entry.
inline void expect_index_matches(const TransactionQueue& q,
                                 const std::vector<ListedEntry>& model,
                                 unsigned resources, std::size_t window) {
  using Pos = TransactionQueue::Pos;
  ASSERT_EQ(q.size(), model.size());
  Pos p = q.first();
  for (const ListedEntry& m : model) {
    ASSERT_EQ(p, m.pos);
    ASSERT_EQ(q.resource_at(p), m.resource);
    p = q.next(p);
  }
  ASSERT_EQ(p, TransactionQueue::kNoPos);

  std::vector<std::vector<Pos>> wants(resources);
  for (const ListedEntry& m : model) wants[m.resource].push_back(m.pos);
  std::vector<unsigned> want_listed;
  for (unsigned r = 0; r < resources; ++r) {
    const std::vector<Pos>& want = wants[r];
    std::vector<Pos> got;
    for (Pos e = q.list_head(r);
         e != TransactionQueue::kNoPos && got.size() <= model.size();
         e = q.list_next(e)) {
      got.push_back(e);
    }
    ASSERT_EQ(got, want) << "resource " << r;
    ASSERT_EQ(q.listed(r), !want.empty()) << "resource " << r;
    ASSERT_EQ(q.bank_mask().test(r), !want.empty()) << "resource " << r;
    if (!want.empty()) want_listed.push_back(r);
  }
  BankBitmap all;
  all.resize(resources, true);
  std::vector<unsigned> visited;
  q.for_each_listed(all, [&](unsigned r) { visited.push_back(r); });
  ASSERT_EQ(visited, want_listed);

  const std::size_t n = std::min(model.size(), window);
  ASSERT_EQ(q.window_last(),
            n == 0 ? TransactionQueue::kNoPos : model[n - 1].pos);
  for (std::size_t i = 0; i < model.size(); ++i) {
    ASSERT_EQ(q.in_window(model[i].pos), i < n) << "entry " << i;
  }
}

}  // namespace wompcm
