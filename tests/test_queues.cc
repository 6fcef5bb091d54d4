#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <vector>

#include "controller/queues.h"
#include "queue_index_check.h"

namespace wompcm {
namespace {

// Entries are placed by address, decoded as a trace file reader decodes
// it; the line index packs lines under the same geometry. Two channels, so
// that every coordinate has a bit to move.
const MemoryGeometry kGeom = [] {
  MemoryGeometry g;
  g.channels = 2;
  return g;
}();

DecodedAddr at(Addr addr) { return AddressMapper(kGeom).decode(addr); }

Transaction make_tx(std::uint64_t id, Addr addr, AccessType type,
                    Tick arrival) {
  Transaction tx;
  tx.id = id;
  tx.dec = at(addr);
  tx.type = type;
  tx.arrival = arrival;
  return tx;
}

// Live entry ids in age order via the first()/next() iteration.
std::vector<std::uint64_t> ids_in_order(const TransactionQueue& q) {
  std::vector<std::uint64_t> out;
  for (auto p = q.first(); p != TransactionQueue::kNoPos; p = q.next(p)) {
    out.push_back(q.at(p).id);
  }
  return out;
}

TEST(TransactionQueue, FifoOrderPreserved) {
  TransactionQueue q;
  q.configure(1, 8);
  EXPECT_TRUE(q.empty());
  q.push(make_tx(1, 0x100, AccessType::kRead, 10), 0);
  q.push(make_tx(2, 0x200, AccessType::kRead, 20), 0);
  q.push(make_tx(3, 0x300, AccessType::kRead, 30), 0);
  ASSERT_EQ(q.size(), 3u);
  EXPECT_EQ(ids_in_order(q), (std::vector<std::uint64_t>{1, 2, 3}));
}

TEST(TransactionQueue, TakeRemovesByPosition) {
  TransactionQueue q;
  q.configure(1, 8);
  q.push(make_tx(1, 0, AccessType::kRead, 0), 0);
  q.push(make_tx(2, 0, AccessType::kRead, 0), 0);
  q.push(make_tx(3, 0, AccessType::kRead, 0), 0);
  const auto middle = q.next(q.first());
  const Transaction t = q.take(middle);
  EXPECT_EQ(t.id, 2u);
  ASSERT_EQ(q.size(), 2u);
  EXPECT_EQ(ids_in_order(q), (std::vector<std::uint64_t>{1, 3}));
}

TEST(TransactionQueue, ContainsLineMatchesWholeLine) {
  TransactionQueue q;
  q.configure(1, 8, &kGeom);
  q.push(make_tx(1, 0x1000, AccessType::kWrite, 0), 0);
  EXPECT_TRUE(q.contains_line(at(0x1000)));
  EXPECT_TRUE(q.contains_line(at(0x103F)));  // same 64B line
  EXPECT_FALSE(q.contains_line(at(0x1040)));
  EXPECT_FALSE(q.contains_line(at(0x0FC0)));
  // Every coordinate is part of the line: moving any one misses.
  for (unsigned DecodedAddr::*field :
       {&DecodedAddr::channel, &DecodedAddr::rank, &DecodedAddr::bank,
        &DecodedAddr::row, &DecodedAddr::col}) {
    DecodedAddr d = at(0x1000);
    d.*field ^= 1;
    EXPECT_FALSE(q.contains_line(d));
  }
}

TEST(TransactionQueue, ContainsLineSurvivesChurn) {
  TransactionQueue q;
  q.configure(1, 4, &kGeom);
  // Several entries on the same line, interleaved with other lines, then
  // removed one by one: the line must stay visible until the last one goes.
  q.push(make_tx(1, 0x1000, AccessType::kWrite, 0), 0);
  q.push(make_tx(2, 0x1020, AccessType::kWrite, 1), 0);  // same line as 1
  q.push(make_tx(3, 0x2000, AccessType::kWrite, 2), 0);
  EXPECT_TRUE(q.contains_line(at(0x1000)));
  q.take(q.first());  // removes id 1
  EXPECT_TRUE(q.contains_line(at(0x1000)));  // id 2 still covers the line
  q.take(q.first());  // removes id 2
  EXPECT_FALSE(q.contains_line(at(0x1000)));
  EXPECT_TRUE(q.contains_line(at(0x2000)));
  q.take(q.first());
  EXPECT_FALSE(q.contains_line(at(0x2000)));
  EXPECT_TRUE(q.empty());
}

TEST(TransactionQueue, ArrivalMonotonicityTracked) {
  TransactionQueue q;
  q.configure(1, 8);
  q.push(make_tx(1, 0, AccessType::kRead, 10), 0);
  q.push(make_tx(2, 0, AccessType::kRead, 10), 0);
  q.push(make_tx(3, 0, AccessType::kRead, 30), 0);
  EXPECT_TRUE(q.arrivals_monotone());
  q.push(make_tx(4, 0, AccessType::kRead, 20), 0);  // out of order
  EXPECT_FALSE(q.arrivals_monotone());
}

TEST(TransactionQueue, ResourceCountsAndMask) {
  TransactionQueue q;
  q.configure(8, 4, &kGeom);
  q.push(make_tx(1, 0x000, AccessType::kWrite, 0), 3);
  q.push(make_tx(2, 0x040, AccessType::kWrite, 1), 3);
  q.push(make_tx(3, 0x080, AccessType::kWrite, 2), 5);
  EXPECT_TRUE(q.bank_mask().test(3));
  EXPECT_TRUE(q.bank_mask().test(5));
  EXPECT_FALSE(q.bank_mask().test(0));
  EXPECT_EQ(q.resource_at(q.first()), 3u);

  // Removing one of two id-3 entries keeps the bit; removing both drops it.
  q.take(q.first());
  EXPECT_TRUE(q.bank_mask().test(3));
  q.take(q.first());
  EXPECT_FALSE(q.bank_mask().test(3));
  EXPECT_TRUE(q.bank_mask().test(5));
  q.take(q.first());
  EXPECT_FALSE(q.bank_mask().any());
  EXPECT_TRUE(q.empty());
}

// Heavy push/take/relist churn in a bounded queue with a 3-entry scan
// window, cross-checked against a plain deque model: exercises free-slot
// reuse in the slab, the line index's backward-shift deletion far past the
// configured capacity, and the per-resource lists and window boundary.
// The 4160 resources take 65 mask words, so each summary bit covers two;
// entries go to 8 resources spread over them.
TEST(TransactionQueue, ChurnMatchesDequeModel) {
  constexpr unsigned kResources = 4160;
  constexpr std::size_t kWindow = 3;
  TransactionQueue q;
  q.configure(kResources, 8, &kGeom, kWindow);
  std::deque<Transaction> model;
  std::vector<ListedEntry> listed;  // the same entries, age order
  std::uint64_t next_id = 1;
  std::uint64_t rng = 12345;
  auto rand = [&rng]() {
    rng = rng * 6364136223846793005ull + 1442695040888963407ull;
    return rng >> 33;
  };
  // Handle of the k-th live entry in age order.
  auto nth = [&q](std::size_t k) {
    auto p = q.first();
    for (std::size_t i = 0; i < k; ++i) p = q.next(p);
    return p;
  };
  for (int step = 0; step < 5000; ++step) {
    const bool do_push = model.size() < 2 || (model.size() < 8 && rand() % 2);
    if (do_push) {
      const Transaction tx = make_tx(next_id++, (rand() % 32) * 64,
                                     AccessType::kWrite, step);
      const unsigned r = static_cast<unsigned>(rand() % 8) * 577;
      q.push(tx, r);
      model.push_back(tx);
      listed.push_back({nth(model.size() - 1), r});
    } else {
      // Take a pseudo-random live entry by rank.
      std::size_t k = rand() % model.size();
      const Transaction got = q.take(nth(k));
      EXPECT_EQ(got.id, model[k].id);
      model.erase(model.begin() + static_cast<std::ptrdiff_t>(k));
      listed.erase(listed.begin() + static_cast<std::ptrdiff_t>(k));
    }
    if (rand() % 3 == 0) {
      // Move a pseudo-random entry to another resource's list.
      ListedEntry& m = listed[rand() % listed.size()];
      m.resource = static_cast<unsigned>(rand() % 8) * 577;
      q.relist(m.pos, m.resource);
    }
    ASSERT_EQ(q.size(), model.size());
    expect_index_matches(q, listed, kResources, kWindow);
    if (::testing::Test::HasFatalFailure()) return;
    // Spot-check the line index and age order against the model.
    if (step % 97 == 0) {
      std::vector<std::uint64_t> want;
      for (const Transaction& tx : model) want.push_back(tx.id);
      EXPECT_EQ(ids_in_order(q), want);
      for (Addr line = 0; line < 32; ++line) {
        bool in_model = false;
        for (const Transaction& tx : model) {
          in_model |= tx.dec == at(line * 64);
        }
        EXPECT_EQ(q.contains_line(at(line * 64)), in_model) << "line " << line;
      }
    }
  }
}

}  // namespace
}  // namespace wompcm
