// TransactionQueue tests aimed at the slab list behind it: handles that
// stay valid while other entries come and go, slot reuse under a stuck
// head, and growth past the configured capacity.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <vector>

#include "controller/queues.h"

namespace wompcm {
namespace {

Transaction make_tx(std::uint64_t id, Addr addr, AccessType type,
                    Tick arrival) {
  Transaction tx;
  tx.id = id;
  tx.addr = addr;
  tx.type = type;
  tx.arrival = arrival;
  return tx;
}

TEST(TransactionQueue, PosStaysValidAcrossOtherPushesAndTakes) {
  TransactionQueue q;
  q.configure(64, 4, 8);
  q.push(make_tx(1, 0x000, AccessType::kWrite, 0), 1);
  const auto held = q.first();
  for (std::uint64_t id = 2; id < 200; ++id) {
    q.push(make_tx(id, id * 64, AccessType::kWrite, id), 2);
    if (q.size() > 4) q.take(q.next(q.first()));  // never the held entry
    ASSERT_EQ(q.at(held).id, 1u);
    ASSERT_EQ(q.arrival_at(held), 0u);
    ASSERT_EQ(q.resource_at(held), 1u);
  }
  EXPECT_EQ(q.first(), held);
  EXPECT_EQ(q.take(held).id, 1u);
  EXPECT_FALSE(q.bank_mask().test(1));
}

// Handle of the most recently pushed live entry.
TransactionQueue::Pos newest(const TransactionQueue& q) {
  auto p = q.first();
  while (q.next(p) != TransactionQueue::kNoPos) p = q.next(p);
  return p;
}

// A queued entry as the model sees it, with the handle and route hint the
// queue should report for it.
struct ModelEntry {
  Transaction tx;
  unsigned resource = TransactionQueue::kNoResource;
  unsigned hint = TransactionQueue::kNoResource;
  TransactionQueue::Pos pos = TransactionQueue::kNoPos;
};

// Checks every per-entry accessor, the age order, the occupancy mask and
// the line index against the model.
void assert_matches_model(const TransactionQueue& q,
                          const std::deque<ModelEntry>& model,
                          unsigned resources, Addr lines,
                          std::uint64_t version) {
  ASSERT_EQ(q.size(), model.size());
  auto p = q.first();
  std::vector<unsigned> counts(resources, 0);
  for (const ModelEntry& m : model) {
    ASSERT_EQ(p, m.pos);
    ASSERT_EQ(q.at(p).id, m.tx.id);
    ASSERT_EQ(q.arrival_at(p), m.tx.arrival);
    ASSERT_EQ(q.row_at(p), m.tx.dec.row);
    ASSERT_EQ(q.resource_at(p), m.resource);
    ASSERT_EQ(q.route_hint(p, version), m.hint);
    ASSERT_EQ(q.route_hint(p, version + 1), TransactionQueue::kNoResource);
    if (m.resource != TransactionQueue::kNoResource) ++counts[m.resource];
    p = q.next(p);
  }
  ASSERT_EQ(p, TransactionQueue::kNoPos);
  for (unsigned r = 0; r < resources; ++r) {
    ASSERT_EQ(q.bank_mask().test(r), counts[r] != 0) << "resource " << r;
  }
  for (Addr line = 0; line < lines; ++line) {
    bool in_model = false;
    for (const ModelEntry& m : model) in_model |= m.tx.addr / 64 == line;
    ASSERT_EQ(q.contains_line(line * 64, 64), in_model) << "line " << line;
  }
}

// The oldest entry never leaves while 100k push/take cycles run behind it
// at full capacity: every slot but the head's is reused thousands of times.
// A third of the entries are dynamically routed and carry route hints,
// which a reused slot must not inherit.
TEST(TransactionQueue, StuckHeadChurnMatchesDequeModel) {
  constexpr unsigned kResources = 16;
  constexpr Addr kLines = 48;
  constexpr std::size_t kCapacity = 12;
  constexpr std::uint64_t kVersion = 7;
  TransactionQueue q;
  q.configure(64, kResources, kCapacity);
  std::deque<ModelEntry> model;
  std::uint64_t next_id = 1;
  std::uint64_t rng = 99;
  auto rand = [&rng]() {
    rng = rng * 6364136223846793005ull + 1442695040888963407ull;
    return rng >> 33;
  };
  auto push = [&](Tick arrival) {
    ModelEntry m;
    m.tx = make_tx(next_id++, (rand() % kLines) * 64, AccessType::kRead,
                   arrival);
    m.tx.dec.row = static_cast<unsigned>(rand() % 1024);
    if (m.tx.id % 3 == 0) {
      q.push(m.tx);
    } else {
      m.resource = static_cast<unsigned>(rand() % kResources);
      q.push(m.tx, m.resource);
    }
    m.pos = newest(q);
    model.push_back(m);
  };
  for (std::size_t i = 0; i < kCapacity; ++i) push(i);
  const std::uint64_t head_id = model.front().tx.id;

  for (int step = 0; step < 100000; ++step) {
    // Take a pseudo-random entry other than the head, then refill.
    const std::size_t k = 1 + rand() % (model.size() - 1);
    ASSERT_EQ(q.take(model[k].pos).id, model[k].tx.id);
    model.erase(model.begin() + static_cast<std::ptrdiff_t>(k));
    push(kCapacity + static_cast<Tick>(step));
    // Cache a route for one dynamic entry, as a scheduler scan would.
    ModelEntry& d = model[rand() % model.size()];
    if (d.resource == TransactionQueue::kNoResource) {
      d.hint = static_cast<unsigned>(rand() % kResources);
      q.set_route_hint(d.pos, d.hint, kVersion);
    }
    ASSERT_EQ(q.at(q.first()).id, head_id);
    if (step % 16 == 0) {
      assert_matches_model(q, model, kResources, kLines, kVersion);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  const auto dynamic =
      std::count_if(model.begin(), model.end(), [](const ModelEntry& m) {
        return m.resource == TransactionQueue::kNoResource;
      });
  EXPECT_EQ(q.unindexed(), static_cast<std::size_t>(dynamic));
}

// Pushing past the configured capacity grows the slab: age order, handles
// taken before the growth, and every index survive it.
TEST(TransactionQueue, GrowthPastCapacityKeepsOrderAndIndexes) {
  constexpr unsigned kResources = 8;
  TransactionQueue q;
  q.configure(64, kResources, 8);
  std::deque<ModelEntry> model;
  for (std::uint64_t id = 1; id <= 100; ++id) {
    ModelEntry m;
    m.tx = make_tx(id, id * 64, AccessType::kWrite, id);
    m.tx.dec.row = static_cast<unsigned>(id * 7);
    m.resource = static_cast<unsigned>(id % kResources);
    q.push(m.tx, m.resource);
    m.pos = newest(q);
    model.push_back(m);
    if (id % 5 == 0) {
      // Take from the middle so growth happens with holes in the slab.
      const std::size_t k = model.size() / 2;
      ASSERT_EQ(q.take(model[k].pos).id, model[k].tx.id);
      model.erase(model.begin() + static_cast<std::ptrdiff_t>(k));
    }
  }
  ASSERT_GT(model.size(), 8u);
  assert_matches_model(q, model, kResources, 128, 0);
  EXPECT_EQ(q.oldest_arrival(), model.front().tx.arrival);
  while (!model.empty()) {
    ASSERT_EQ(q.take(model.front().pos).id, model.front().tx.id);
    model.pop_front();
  }
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.bank_mask().any());
  EXPECT_EQ(q.first(), TransactionQueue::kNoPos);
}

}  // namespace
}  // namespace wompcm
