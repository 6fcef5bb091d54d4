// Tests of the row-buffer policy knob.
#include <gtest/gtest.h>

#include <memory>

#include "arch/arch.h"
#include "arrival_feed.h"
#include "controller/controller.h"

namespace wompcm {

// Names the policy in ctest names (gtest would print the enum's byte).
void PrintTo(RowPolicy p, std::ostream* os) { *os << to_string(p); }

namespace {

MemoryGeometry small_geom() {
  MemoryGeometry g;
  g.channels = 1;
  g.ranks = 2;
  g.banks_per_rank = 2;
  g.rows_per_bank = 16;
  g.cols_per_row = 64;
  return g;
}

class RowPolicyTest : public ::testing::TestWithParam<RowPolicy> {
 protected:
  void SetUp() override {
    cfg_.geom = small_geom();
    cfg_.row_policy = GetParam();
    arch_ =
        std::make_unique<Architecture>(cfg_.geom, cfg_.timing, ArchConfig{});
    ctrl_ = std::make_unique<MemoryController>(cfg_, 0, *arch_, stats_);
  }

  // Delivers the fed transactions at their arrival instants and runs the
  // controller's events to quiescence.
  void run_to_drain() { feed_.run(*ctrl_); }

  Transaction tx(std::uint64_t id, unsigned row, unsigned col, Tick arrival) {
    Transaction t;
    t.id = id;
    t.dec = DecodedAddr{0, 0, 0, row, col};
    t.type = AccessType::kRead;
    t.arrival = arrival;
    return t;
  }

  ArrivalFeed feed_;
  ControllerConfig cfg_;
  SimStats stats_;
  std::unique_ptr<Architecture> arch_;
  std::unique_ptr<MemoryController> ctrl_;
};

TEST_P(RowPolicyTest, BackToBackSameRowReads) {
  feed_.add(tx(1, 3, 0, 0));
  feed_.add(tx(2, 3, 1, 0));
  run_to_drain();
  ASSERT_EQ(stats_.demand_read_latency.count(), 2u);
  if (GetParam() == RowPolicy::kOpen) {
    // Second read row-hits: 44 then 44 + 17.
    EXPECT_EQ(stats_.demand_read_latency.max(), 61u);
    EXPECT_EQ(ctrl_->banks()[0].row_hits(), 1u);
  } else {
    // Closed-page pays activation both times: 44 then 44 + 44.
    EXPECT_EQ(stats_.demand_read_latency.max(), 88u);
    EXPECT_EQ(ctrl_->banks()[0].row_hits(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Policies, RowPolicyTest,
                         ::testing::Values(RowPolicy::kOpen,
                                           RowPolicy::kClosed));

TEST(RowPolicy, ToString) {
  EXPECT_STREQ(to_string(RowPolicy::kOpen), "open-page");
  EXPECT_STREQ(to_string(RowPolicy::kClosed), "closed-page");
}

}  // namespace
}  // namespace wompcm
