// TransactionQueue tests aimed at the slab list behind it: handles that
// stay valid while other entries come and go, slot reuse under a stuck
// head (with the per-resource lists and window boundary checked against a
// model), and growth past the configured capacity.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <vector>

#include "controller/queues.h"
#include "queue_index_check.h"

namespace wompcm {
namespace {

// Entries are placed by paper-geometry address, decoded as a trace file
// reader decodes it; the line index packs lines under the same geometry.
const MemoryGeometry kGeom;

Transaction make_tx(std::uint64_t id, Addr addr, AccessType type,
                    Tick arrival) {
  Transaction tx;
  tx.id = id;
  tx.dec = AddressMapper(kGeom).decode(addr);
  tx.type = type;
  tx.arrival = arrival;
  return tx;
}

TEST(TransactionQueue, PosStaysValidAcrossOtherPushesAndTakes) {
  TransactionQueue q;
  q.configure(4, 8, &kGeom);
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

// A queued entry as the model sees it, with the handle and resource the
// queue should report for it.
struct ModelEntry {
  Transaction tx;
  unsigned resource = 0;
  TransactionQueue::Pos pos = TransactionQueue::kNoPos;
};

// Checks every per-entry accessor, the age order, the bank index and the
// line index against the model. The line index is probed at columns
// [0, lines) of every row a live entry is on.
void assert_matches_model(const TransactionQueue& q,
                          const std::deque<ModelEntry>& model,
                          unsigned resources, unsigned lines,
                          std::size_t window) {
  ASSERT_EQ(q.size(), model.size());
  std::vector<ListedEntry> listed;
  for (const ModelEntry& m : model) {
    ASSERT_EQ(q.at(m.pos).id, m.tx.id);
    ASSERT_EQ(q.arrival_at(m.pos), m.tx.arrival);
    ASSERT_EQ(q.row_at(m.pos), m.tx.dec.row);
    listed.push_back({m.pos, m.resource});
  }
  expect_index_matches(q, listed, resources, window);
  if (::testing::Test::HasFatalFailure()) return;
  for (const ModelEntry& on_row : model) {
    DecodedAddr probe = on_row.tx.dec;
    for (probe.col = 0; probe.col < lines; ++probe.col) {
      bool in_model = false;
      for (const ModelEntry& m : model) in_model |= m.tx.dec == probe;
      ASSERT_EQ(q.contains_line(probe), in_model)
          << "row " << probe.row << " col " << probe.col;
    }
  }
}

// The oldest entry never leaves while 100k push/take cycles run behind it
// at full capacity: every slot but the head's is reused thousands of times.
// Each cycle also moves a random entry, the head included, to another
// resource's list, as a cache retag moves a waiting read. Entries go to 16
// resources spread over four mask words.
TEST(TransactionQueue, StuckHeadChurnMatchesDequeModel) {
  constexpr unsigned kResources = 208;
  constexpr unsigned kLines = 48;
  constexpr std::size_t kCapacity = 12;
  constexpr std::size_t kWindow = 5;
  TransactionQueue q;
  q.configure(kResources, kCapacity, &kGeom, kWindow);
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
    m.resource = static_cast<unsigned>(rand() % 16) * 13;
    q.push(m.tx, m.resource);
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
    ModelEntry& moved = model[rand() % model.size()];
    moved.resource = static_cast<unsigned>(rand() % 16) * 13;
    q.relist(moved.pos, moved.resource);
    ASSERT_EQ(q.at(q.first()).id, head_id);
    if (step % 16 == 0) {
      assert_matches_model(q, model, kResources, kLines, kWindow);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

// Pushing past the configured capacity grows the slab: age order, handles
// taken before the growth, and every index survive it.
TEST(TransactionQueue, GrowthPastCapacityKeepsOrderAndIndexes) {
  constexpr unsigned kResources = 8;
  TransactionQueue q;
  q.configure(kResources, 8, &kGeom);
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
  assert_matches_model(q, model, kResources, 128,
                       TransactionQueue::kWholeQueue);
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
