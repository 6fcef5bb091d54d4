// Integration tests of PCM-refresh (Section 3.2): opportunistic row
// re-initialization, the r_th threshold, and write pausing.
#include <gtest/gtest.h>

#include <memory>

#include "arch/arch.h"
#include "arrival_feed.h"
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

class RefreshTest : public ::testing::Test {
 protected:
  void build(double threshold = 0.0, bool pausing = true) {
    cfg_ = ControllerConfig{};
    cfg_.geom = small_geom();
    cfg_.refresh.threshold = threshold;
    cfg_.refresh.write_pausing = pausing;
    ArchConfig ac;
    ac.composition = arch_preset("refresh");
    arch_ = std::make_unique<Architecture>(cfg_.geom, cfg_.timing, ac);
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

  // Delivers the fed transactions at their arrival instants and runs the
  // controller's events, up to and including `until`, resuming from the
  // last instant run.
  void run_until(Tick until) { feed_.run(*ctrl_, until); }

  ArrivalFeed feed_;
  ControllerConfig cfg_;
  SimStats stats_;
  std::unique_ptr<Architecture> arch_;
  std::unique_ptr<MemoryController> ctrl_;
};

TEST_F(RefreshTest, RefreshesRowAtLimitDuringIdle) {
  build();
  // Two writes drive line (row 3, col 0) to the rewrite limit (t = 2).
  feed_.add(tx(1, 0, 0, 3, 0, AccessType::kWrite, 0));
  feed_.add(tx(2, 0, 0, 3, 0, AccessType::kWrite, 300));
  run_until(3999);
  EXPECT_EQ(ctrl_->refresh_engine().commands(), 0u);

  // The 4000 ns check finds rank 0 idle with a pending row.
  run_until(8000);
  EXPECT_GE(ctrl_->refresh_engine().commands(), 1u);
  EXPECT_GE(ctrl_->refresh_engine().rows_refreshed(), 1u);

  // The third write to the line is now RESET-only instead of alpha.
  feed_.add(tx(3, 0, 0, 3, 0, AccessType::kWrite, 10000));
  run_until(20000);
  ASSERT_EQ(stats_.demand_write_latency.count(), 3u);
  // Latencies: cold alpha 27+4+150 = 181; row-hit rewrite 4+40 = 44;
  // post-refresh write (row buffer closed by the refresh) 27+4+40 = 71.
  EXPECT_EQ(stats_.demand_write_latency.max(), 181u);
  EXPECT_EQ(stats_.demand_write_latency.min(), 44u);
  EXPECT_NEAR(stats_.demand_write_latency.mean(), (181.0 + 44.0 + 71.0) / 3,
              1e-9);
  EXPECT_EQ(arch_->counters().get("refresh.rows"), 1u);
}

TEST_F(RefreshTest, WithoutRefreshThirdWriteIsAlpha) {
  cfg_ = ControllerConfig{};
  cfg_.geom = small_geom();
  ArchConfig ac;
  ac.composition = arch_preset("wom");  // no refresh hooks
  arch_ = std::make_unique<Architecture>(cfg_.geom, cfg_.timing, ac);
  ctrl_ = std::make_unique<MemoryController>(cfg_, 0, *arch_, stats_);

  feed_.add(tx(1, 0, 0, 3, 0, AccessType::kWrite, 0));
  feed_.add(tx(2, 0, 0, 3, 0, AccessType::kWrite, 300));
  feed_.add(tx(3, 0, 0, 3, 0, AccessType::kWrite, 10000));
  run_until(20000);
  // Cold alpha, fast rewrite, then alpha again at the limit.
  EXPECT_EQ(arch_->counters().get("writes.alpha"), 2u);
  EXPECT_EQ(arch_->counters().get("writes.fast"), 1u);
  EXPECT_EQ(ctrl_->refresh_engine().commands(), 0u);
}

TEST_F(RefreshTest, ThresholdSuppressesSparseRanks) {
  build(/*threshold=*/0.9);  // needs 90% of banks pending; we have 1 of 2
  feed_.add(tx(1, 0, 0, 3, 0, AccessType::kWrite, 0));
  feed_.add(tx(2, 0, 0, 3, 0, AccessType::kWrite, 300));
  run_until(20000);
  EXPECT_EQ(ctrl_->refresh_engine().commands(), 0u);
}

TEST_F(RefreshTest, ThresholdMetWhenAllBanksPending) {
  build(/*threshold=*/0.9);
  // Drive one row to the limit in BOTH banks of rank 0.
  for (unsigned bank = 0; bank < 2; ++bank) {
    feed_.add(tx(1 + bank * 2, 0, bank, 3, 0, AccessType::kWrite, bank * 400));
    feed_.add(tx(2 + bank * 2, 0, bank, 3, 0, AccessType::kWrite,
                 1000 + bank * 400));
  }
  run_until(20000);
  EXPECT_GE(ctrl_->refresh_engine().commands(), 1u);
  EXPECT_GE(ctrl_->refresh_engine().rows_refreshed(), 2u);
}

TEST_F(RefreshTest, WritePausingLetsDemandPreempt) {
  build(0.0, /*pausing=*/true);
  feed_.add(tx(1, 0, 0, 3, 0, AccessType::kWrite, 0));
  feed_.add(tx(2, 0, 0, 3, 0, AccessType::kWrite, 300));
  // Refresh fires at 4000 and occupies bank (0,0) for 150 + 4 ns.
  run_until(4000);
  ASSERT_GE(ctrl_->refresh_engine().commands(), 1u);
  // A read lands mid-refresh and preempts it at the pause penalty.
  feed_.add(tx(3, 0, 0, 5, 0, AccessType::kRead, 4010));
  run_until(20000);
  ASSERT_EQ(stats_.demand_read_latency.count(), 1u);
  // pause penalty + activate + col read + burst = 5 + 27 + 13 + 4.
  EXPECT_EQ(stats_.demand_read_latency.mean(), 49.0);
  EXPECT_EQ(stats_.counters.get("ctrl.refresh_pauses"), 1u);
}

TEST_F(RefreshTest, WithoutPausingDemandWaitsForRefresh) {
  build(0.0, /*pausing=*/false);
  feed_.add(tx(1, 0, 0, 3, 0, AccessType::kWrite, 0));
  feed_.add(tx(2, 0, 0, 3, 0, AccessType::kWrite, 300));
  run_until(4000);
  ASSERT_GE(ctrl_->refresh_engine().commands(), 1u);
  feed_.add(tx(3, 0, 0, 5, 0, AccessType::kRead, 4010));
  run_until(20000);
  ASSERT_EQ(stats_.demand_read_latency.count(), 1u);
  // Refresh holds the bank until 4000 + 150 + 4 = 4154; then 44 ns service:
  // latency = 4154 + 44 - 4010.
  EXPECT_EQ(stats_.demand_read_latency.mean(), 188.0);
  EXPECT_EQ(stats_.counters.get("ctrl.refresh_pauses"), 0u);
}

// The read arrives at the very instant of the refresh check, so the
// refresh takes the idle bank first and the read, already queued, must be
// woken when the refresh ends.
TEST_F(RefreshTest, WithoutPausingDemandAtTheCheckWaitsForRefresh) {
  build(0.0, /*pausing=*/false);
  feed_.add(tx(1, 0, 0, 3, 0, AccessType::kWrite, 0));
  feed_.add(tx(2, 0, 0, 3, 0, AccessType::kWrite, 300));
  run_until(3999);
  feed_.add(tx(3, 0, 0, 5, 0, AccessType::kRead, 4000));
  run_until(20000);
  ASSERT_EQ(ctrl_->refresh_engine().commands(), 1u);
  ASSERT_EQ(stats_.demand_read_latency.count(), 1u);
  // Refresh holds the bank until 4154; then 44 ns service.
  EXPECT_EQ(stats_.demand_read_latency.mean(), 198.0);
}

TEST_F(RefreshTest, RefreshEngineInactiveWhenDisabled) {
  cfg_ = ControllerConfig{};
  cfg_.geom = small_geom();
  cfg_.refresh.enabled = false;
  ArchConfig ac;
  ac.composition = arch_preset("refresh");
  arch_ = std::make_unique<Architecture>(cfg_.geom, cfg_.timing, ac);
  ctrl_ = std::make_unique<MemoryController>(cfg_, 0, *arch_, stats_);
  feed_.add(tx(1, 0, 0, 3, 0, AccessType::kWrite, 0));
  feed_.add(tx(2, 0, 0, 3, 0, AccessType::kWrite, 300));
  run_until(20000);
  EXPECT_EQ(ctrl_->refresh_engine().commands(), 0u);
}

TEST_F(RefreshTest, StaleRatEntriesAreSkipped) {
  build();
  // Drive the line to the limit, then alpha it with a demand write BEFORE
  // the refresh check: the RAT entry goes stale and must be skipped.
  feed_.add(tx(1, 0, 0, 3, 0, AccessType::kWrite, 0));
  feed_.add(tx(2, 0, 0, 3, 0, AccessType::kWrite, 300));
  feed_.add(tx(3, 0, 0, 3, 0, AccessType::kWrite, 600));  // alpha
  run_until(20000);
  EXPECT_EQ(arch_->counters().get("refresh.rows"), 0u);
  EXPECT_EQ(arch_->counters().get("rat.stale_pop"), 1u);
}

}  // namespace
}  // namespace wompcm
