#include <gtest/gtest.h>

#include "controller/scheduler.h"

namespace wompcm {
namespace {

Transaction make_tx(std::uint64_t id, unsigned row, Tick arrival) {
  Transaction tx;
  tx.id = id;
  tx.dec.row = row;
  tx.arrival = arrival;
  return tx;
}

TEST(SchedulerConfig, DefaultsValid) {
  SchedulerConfig cfg;
  EXPECT_TRUE(cfg.valid());
  EXPECT_EQ(cfg.policy, SchedulingPolicy::kFcfs);
}

TEST(SchedulerConfig, RejectsBadWatermarks) {
  SchedulerConfig cfg;
  cfg.write_q_low = cfg.write_q_high;
  EXPECT_FALSE(cfg.valid());
  cfg = SchedulerConfig{};
  cfg.write_q_high = 0;
  EXPECT_FALSE(cfg.valid());
  cfg = SchedulerConfig{};
  cfg.scan_limit = 0;
  EXPECT_FALSE(cfg.valid());
}

TEST(PickTransaction, OldestIssuableWithoutRowHits) {
  TransactionQueue q;
  q.configure(1, 8);
  q.push(make_tx(1, 0, 0), 0);
  q.push(make_tx(2, 0, 1), 0);
  q.push(make_tx(3, 0, 2), 0);
  SchedulerConfig cfg;
  cfg.row_hit_first = false;
  const auto pick = pick_transaction(
      q, cfg, [](const Transaction& tx) { return tx.id != 1; },
      [](const Transaction&) { return false; });
  EXPECT_EQ(pick, 1u);  // id 2: oldest issuable
}

TEST(PickTransaction, PrefersRowHit) {
  TransactionQueue q;
  q.configure(1, 8);
  q.push(make_tx(1, 5, 0), 0);
  q.push(make_tx(2, 9, 1), 0);  // the row hit, but younger
  SchedulerConfig cfg;
  const auto pick = pick_transaction(
      q, cfg, [](const Transaction&) { return true; },
      [](const Transaction& tx) { return tx.dec.row == 9; });
  EXPECT_EQ(pick, 1u);
}

TEST(PickTransaction, FallsBackToOldestWhenNoHit) {
  TransactionQueue q;
  q.configure(1, 8);
  q.push(make_tx(1, 5, 0), 0);
  q.push(make_tx(2, 9, 1), 0);
  SchedulerConfig cfg;
  const auto pick = pick_transaction(
      q, cfg, [](const Transaction&) { return true; },
      [](const Transaction&) { return false; });
  EXPECT_EQ(pick, 0u);
}

TEST(PickTransaction, NothingIssuable) {
  TransactionQueue q;
  q.configure(1, 8);
  q.push(make_tx(1, 0, 0), 0);
  SchedulerConfig cfg;
  const auto pick = pick_transaction(
      q, cfg, [](const Transaction&) { return false; },
      [](const Transaction&) { return true; });
  EXPECT_EQ(pick, kNoPick);
}

TEST(PickTransaction, ScanLimitBoundsTheWindow) {
  TransactionQueue q;
  q.configure(1, 8);
  for (std::uint64_t i = 0; i < 10; ++i) q.push(make_tx(i, 0, i), 0);
  SchedulerConfig cfg;
  cfg.scan_limit = 4;
  // Only entries beyond the window are issuable: the pick must miss them.
  const auto pick = pick_transaction(
      q, cfg, [](const Transaction& tx) { return tx.id >= 4; },
      [](const Transaction&) { return false; });
  EXPECT_EQ(pick, kNoPick);
}

TEST(WriteDrainPolicy, HysteresisBetweenWatermarks) {
  SchedulerConfig cfg;
  cfg.write_q_high = 10;
  cfg.write_q_low = 4;
  WriteDrainPolicy drain(cfg);
  EXPECT_FALSE(drain.update(5, 3));   // below high, not draining
  EXPECT_TRUE(drain.update(10, 3));   // reached high: drain
  EXPECT_TRUE(drain.update(7, 3));    // stays draining between marks
  EXPECT_FALSE(drain.update(4, 3));   // fell to low: stop
  EXPECT_FALSE(drain.update(7, 3));   // and stays off between marks
}

TEST(WriteDrainPolicy, EmptyReadQueueServesWrites) {
  SchedulerConfig cfg;
  WriteDrainPolicy drain(cfg);
  EXPECT_TRUE(drain.update(1, 0));
  EXPECT_FALSE(drain.draining());  // opportunistic, not drain mode
}

}  // namespace
}  // namespace wompcm
