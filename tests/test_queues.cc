#include <gtest/gtest.h>

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
  EXPECT_TRUE(q.empty());
  q.push(make_tx(1, 0x100, AccessType::kRead, 10));
  q.push(make_tx(2, 0x200, AccessType::kRead, 20));
  q.push(make_tx(3, 0x300, AccessType::kRead, 30));
  ASSERT_EQ(q.size(), 3u);
  EXPECT_EQ(ids_in_order(q), (std::vector<std::uint64_t>{1, 2, 3}));
}

TEST(TransactionQueue, TakeRemovesByPosition) {
  TransactionQueue q;
  q.push(make_tx(1, 0, AccessType::kRead, 0));
  q.push(make_tx(2, 0, AccessType::kRead, 0));
  q.push(make_tx(3, 0, AccessType::kRead, 0));
  const auto middle = q.next(q.first());
  const Transaction t = q.take(middle);
  EXPECT_EQ(t.id, 2u);
  ASSERT_EQ(q.size(), 2u);
  EXPECT_EQ(ids_in_order(q), (std::vector<std::uint64_t>{1, 3}));
}

TEST(TransactionQueue, ContainsLineMatchesWholeLine) {
  TransactionQueue q;
  q.configure(64, 0, 8);
  q.push(make_tx(1, 0x1000, AccessType::kWrite, 0));
  EXPECT_TRUE(q.contains_line(0x1000, 64));
  EXPECT_TRUE(q.contains_line(0x103F, 64));  // same 64B line
  EXPECT_FALSE(q.contains_line(0x1040, 64));
  EXPECT_FALSE(q.contains_line(0x0FC0, 64));
  // Queries at a granularity the index is not keyed for still work.
  EXPECT_TRUE(q.contains_line(0x1100, 4096));
  EXPECT_FALSE(q.contains_line(0x2000, 4096));
}

TEST(TransactionQueue, ContainsLineSurvivesChurn) {
  TransactionQueue q;
  q.configure(64, 0, 4);
  // Several entries on the same line, interleaved with other lines, then
  // removed one by one: the line must stay visible until the last one goes.
  q.push(make_tx(1, 0x1000, AccessType::kWrite, 0));
  q.push(make_tx(2, 0x1020, AccessType::kWrite, 1));  // same line as 1
  q.push(make_tx(3, 0x2000, AccessType::kWrite, 2));
  EXPECT_TRUE(q.contains_line(0x1000, 64));
  q.take(q.first());  // removes id 1
  EXPECT_TRUE(q.contains_line(0x1000, 64));  // id 2 still covers the line
  q.take(q.first());  // removes id 2
  EXPECT_FALSE(q.contains_line(0x1000, 64));
  EXPECT_TRUE(q.contains_line(0x2000, 64));
  q.take(q.first());
  EXPECT_FALSE(q.contains_line(0x2000, 64));
  EXPECT_TRUE(q.empty());
}

TEST(TransactionQueue, OldestArrival) {
  TransactionQueue q;
  EXPECT_EQ(q.oldest_arrival(), kNeverTick);
  q.push(make_tx(1, 0, AccessType::kRead, 50));
  q.push(make_tx(2, 0, AccessType::kRead, 20));
  q.push(make_tx(3, 0, AccessType::kRead, 70));
  EXPECT_EQ(q.oldest_arrival(), 20u);
}

TEST(TransactionQueue, ArrivalMonotonicityTracked) {
  TransactionQueue q;
  q.push(make_tx(1, 0, AccessType::kRead, 10));
  q.push(make_tx(2, 0, AccessType::kRead, 10));
  q.push(make_tx(3, 0, AccessType::kRead, 30));
  EXPECT_TRUE(q.arrivals_monotone());
  q.push(make_tx(4, 0, AccessType::kRead, 20));  // out of order
  EXPECT_FALSE(q.arrivals_monotone());
}

TEST(TransactionQueue, ResourceCountsAndMask) {
  TransactionQueue q;
  q.configure(64, 8, 4);
  q.push(make_tx(1, 0x000, AccessType::kWrite, 0), 3);
  q.push(make_tx(2, 0x040, AccessType::kWrite, 1), 3);
  q.push(make_tx(3, 0x080, AccessType::kWrite, 2), 5);
  q.push(make_tx(4, 0x0C0, AccessType::kRead, 3));  // dynamic route
  EXPECT_EQ(q.unindexed(), 1u);
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
  EXPECT_EQ(q.unindexed(), 1u);
  EXPECT_EQ(q.resource_at(q.first()), TransactionQueue::kNoResource);
}

// Heavy push/take churn in a bounded queue, cross-checked against a plain
// deque model: exercises free-slot reuse in the slab and the line index's
// backward-shift deletion far past the configured capacity.
TEST(TransactionQueue, ChurnMatchesDequeModel) {
  TransactionQueue q;
  q.configure(64, 16, 8);
  std::deque<Transaction> model;
  std::uint64_t next_id = 1;
  std::uint64_t rng = 12345;
  auto rand = [&rng]() {
    rng = rng * 6364136223846793005ull + 1442695040888963407ull;
    return rng >> 33;
  };
  for (int step = 0; step < 5000; ++step) {
    const bool do_push = model.size() < 2 || (model.size() < 8 && rand() % 2);
    if (do_push) {
      const Transaction tx = make_tx(next_id++, (rand() % 32) * 64,
                                     AccessType::kWrite, step);
      q.push(tx, static_cast<unsigned>(tx.addr / 64 % 16));
      model.push_back(tx);
    } else {
      // Take a pseudo-random live entry by rank.
      std::size_t k = rand() % model.size();
      auto p = q.first();
      for (std::size_t i = 0; i < k; ++i) p = q.next(p);
      const Transaction got = q.take(p);
      EXPECT_EQ(got.id, model[k].id);
      model.erase(model.begin() + static_cast<std::ptrdiff_t>(k));
    }
    ASSERT_EQ(q.size(), model.size());
    // Spot-check the line index and age order against the model.
    if (step % 97 == 0) {
      std::vector<std::uint64_t> want;
      for (const Transaction& tx : model) want.push_back(tx.id);
      EXPECT_EQ(ids_in_order(q), want);
      for (Addr line = 0; line < 32; ++line) {
        bool in_model = false;
        for (const Transaction& tx : model) {
          in_model |= tx.addr / 64 == line;
        }
        EXPECT_EQ(q.contains_line(line * 64, 64), in_model) << "line " << line;
      }
    }
  }
}

}  // namespace
}  // namespace wompcm
