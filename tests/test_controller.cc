// Integration tests of the memory controller timing on a small geometry
// with the conventional-PCM architecture: service-time composition, open-row
// tracking, bus serialization, read blocking behind writes, forwarding, and
// frontend back-pressure.
#include <gtest/gtest.h>

#include <memory>

#include "arch/arch.h"
#include "controller/controller.h"

namespace wompcm {
namespace {

MemoryGeometry small_geom() {
  MemoryGeometry g;
  g.channels = 1;
  g.ranks = 2;
  g.banks_per_rank = 2;
  g.rows_per_bank = 16;
  g.cols_per_row = 64;  // 8 lines/row
  return g;
}

class ControllerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cfg_.geom = small_geom();
    arch_ =
        std::make_unique<Architecture>(cfg_.geom, cfg_.timing, ArchConfig{});
    ctrl_ = std::make_unique<MemoryController>(cfg_, 0, *arch_, stats_);
  }

  Transaction tx(std::uint64_t id, unsigned rank, unsigned bank, unsigned row,
                 unsigned col, AccessType type, Tick arrival) {
    Transaction t;
    t.id = id;
    t.dec = DecodedAddr{0, rank, bank, row, col};
    t.type = type;
    t.arrival = arrival;
    return t;
  }

  // Runs the controller's event loop to quiescence starting at `now`.
  void run_to_drain(Tick now = 0) {
    ctrl_->tick(now);
    for (;;) {
      const Tick t = ctrl_->next_event_after(now);
      if (t == kNeverTick) break;
      now = t;
      ctrl_->tick(now);
    }
    EXPECT_TRUE(ctrl_->drained());
  }

  ControllerConfig cfg_;
  SimStats stats_;
  std::unique_ptr<Architecture> arch_;
  std::unique_ptr<MemoryController> ctrl_;
};

TEST_F(ControllerTest, SingleReadServiceTime) {
  ctrl_->enqueue(tx(1, 0, 0, 3, 0, AccessType::kRead, 0));
  run_to_drain();
  ASSERT_EQ(stats_.demand_read_latency.count(), 1u);
  // activate + column read + burst = 27 + 13 + 4.
  EXPECT_EQ(stats_.demand_read_latency.mean(), 44.0);
}

TEST_F(ControllerTest, RowHitReadSkipsActivation) {
  ctrl_->enqueue(tx(1, 0, 0, 3, 0, AccessType::kRead, 0));
  ctrl_->enqueue(tx(2, 0, 0, 3, 5, AccessType::kRead, 0));
  run_to_drain();
  ASSERT_EQ(stats_.demand_read_latency.count(), 2u);
  // First: 44 at t=0..44. Second issues at 44 (bank busy): 13+4 service,
  // latency = 44 + 17 = 61.
  EXPECT_EQ(stats_.demand_read_latency.min(), 44u);
  EXPECT_EQ(stats_.demand_read_latency.max(), 61u);
}

TEST_F(ControllerTest, SingleWriteServiceTime) {
  ctrl_->enqueue(tx(1, 0, 0, 3, 0, AccessType::kWrite, 0));
  run_to_drain();
  ASSERT_EQ(stats_.demand_write_latency.count(), 1u);
  // activate + burst + full row write = 27 + 4 + 150.
  EXPECT_EQ(stats_.demand_write_latency.mean(), 181.0);
}

TEST_F(ControllerTest, ReadBlocksBehindWriteOnSameBank) {
  ctrl_->enqueue(tx(1, 0, 0, 3, 0, AccessType::kWrite, 0));
  ctrl_->enqueue(tx(2, 0, 0, 4, 0, AccessType::kRead, 1));
  run_to_drain();
  ASSERT_EQ(stats_.demand_read_latency.count(), 1u);
  // Write occupies the bank until 181; read (different row, no forwarding)
  // then takes 27+13+4 = 44 -> latency 181 + 44 - 1 = 224.
  EXPECT_EQ(stats_.demand_read_latency.mean(), 224.0);
}

TEST_F(ControllerTest, IndependentBanksProceedInParallel) {
  ctrl_->enqueue(tx(1, 0, 0, 3, 0, AccessType::kWrite, 0));
  ctrl_->enqueue(tx(2, 1, 1, 4, 0, AccessType::kRead, 0));
  run_to_drain();
  ASSERT_EQ(stats_.demand_read_latency.count(), 1u);
  // Arrival tie goes to the read; the write then waits only for the shared
  // data bus (4 ns) before proceeding on its own bank.
  EXPECT_EQ(stats_.demand_read_latency.mean(), 44.0);
  EXPECT_EQ(stats_.demand_write_latency.mean(), 185.0);
}

TEST_F(ControllerTest, BusSerializesSameChannelIssues) {
  ctrl_->enqueue(tx(1, 0, 0, 1, 0, AccessType::kRead, 0));
  ctrl_->enqueue(tx(2, 1, 0, 1, 0, AccessType::kRead, 0));
  ctrl_->enqueue(tx(3, 0, 1, 1, 0, AccessType::kRead, 0));
  run_to_drain();
  ASSERT_EQ(stats_.demand_read_latency.count(), 3u);
  // Issue times 0, 4, 8 on distinct banks: latencies 44, 48, 52.
  EXPECT_EQ(stats_.demand_read_latency.min(), 44u);
  EXPECT_EQ(stats_.demand_read_latency.max(), 52u);
  EXPECT_DOUBLE_EQ(stats_.demand_read_latency.mean(), 48.0);
}

TEST_F(ControllerTest, FcfsAgeOrderAcrossReadAndWrite) {
  // Older write goes before the younger read to the same bank and row.
  ctrl_->enqueue(tx(1, 0, 0, 3, 0, AccessType::kWrite, 0));
  ctrl_->enqueue(tx(2, 0, 0, 3, 1, AccessType::kRead, 1));
  run_to_drain();
  // Write runs 0..181; the read then row-hits (13 + 4), so it completes at
  // 198 for a latency of 197.
  EXPECT_EQ(stats_.demand_write_latency.mean(), 181.0);
  EXPECT_EQ(stats_.demand_read_latency.mean(), 197.0);
}

TEST_F(ControllerTest, WriteToReadForwarding) {
  ctrl_->enqueue(tx(1, 0, 0, 3, 0, AccessType::kWrite, 0));
  // Same line: served from the write queue at buffer latency.
  ctrl_->enqueue(tx(2, 0, 0, 3, 0, AccessType::kRead, 0));
  run_to_drain();
  ASSERT_EQ(stats_.demand_read_latency.count(), 1u);
  EXPECT_EQ(stats_.demand_read_latency.mean(), 17.0);  // col read + burst
  EXPECT_EQ(stats_.counters.get("ctrl.reads_forwarded"), 1u);
}

TEST_F(ControllerTest, ForwardingCanBeDisabled) {
  cfg_.read_forwarding = false;
  ctrl_ = std::make_unique<MemoryController>(cfg_, 0, *arch_, stats_);
  ctrl_->enqueue(tx(1, 0, 0, 3, 0, AccessType::kWrite, 0));
  ctrl_->enqueue(tx(2, 0, 0, 3, 0, AccessType::kRead, 1));
  run_to_drain();
  EXPECT_EQ(stats_.counters.get("ctrl.reads_forwarded"), 0u);
  // Without forwarding the read waits out the whole write (181) and then
  // row-hits: latency 181 + 17 - 1.
  EXPECT_EQ(stats_.demand_read_latency.mean(), 197.0);
}

TEST_F(ControllerTest, BackPressureAtCapacity) {
  cfg_.queue_capacity = 4;
  ctrl_ = std::make_unique<MemoryController>(cfg_, 0, *arch_, stats_);
  for (std::uint64_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(ctrl_->can_accept());
    ctrl_->enqueue(tx(i, 0, 0, 1, static_cast<unsigned>(i) % 8,
                      AccessType::kWrite, 0));
  }
  EXPECT_FALSE(ctrl_->can_accept());
  run_to_drain();
  EXPECT_TRUE(ctrl_->can_accept());
}

TEST_F(ControllerTest, WarmupTransactionsKeepNoStats) {
  Transaction t = tx(1, 0, 0, 3, 0, AccessType::kRead, 0);
  t.record = false;
  ctrl_->enqueue(t);
  ctrl_->enqueue(tx(2, 0, 0, 3, 1, AccessType::kRead, 0));
  run_to_drain();
  EXPECT_EQ(stats_.demand_read_latency.count(), 1u);
}

TEST_F(ControllerTest, LastCompletionTracksFinish) {
  ctrl_->enqueue(tx(1, 0, 0, 3, 0, AccessType::kWrite, 0));
  run_to_drain();
  EXPECT_EQ(ctrl_->last_completion(), 181u);
}

TEST_F(ControllerTest, ReadPriorityPolicyServesReadFirst) {
  cfg_.sched.policy = SchedulingPolicy::kReadPriority;
  ctrl_ = std::make_unique<MemoryController>(cfg_, 0, *arch_, stats_);
  // Write is older, read younger, same bank: read-priority lets the read
  // bypass the queued write.
  ctrl_->enqueue(tx(1, 0, 0, 3, 0, AccessType::kWrite, 0));
  ctrl_->enqueue(tx(2, 0, 0, 4, 0, AccessType::kRead, 0));
  run_to_drain();
  EXPECT_EQ(stats_.demand_read_latency.mean(), 44.0);
  EXPECT_GT(stats_.demand_write_latency.mean(), 181.0);
}

}  // namespace
}  // namespace wompcm
