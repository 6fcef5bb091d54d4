// Tests of Start-Gap wear leveling: bijectivity, gap movement, rotation,
// and integration with the architectures.
#include <gtest/gtest.h>

#include <set>

#include "arch/arch.h"
#include "controller/wear_leveling.h"

namespace wompcm {
namespace {

TEST(StartGap, InitialMappingIsIdentity) {
  StartGapRemapper sg(16, 4);
  for (unsigned r = 0; r < 16; ++r) EXPECT_EQ(sg.remap(r), r);
  EXPECT_EQ(sg.gap(), 16u);
  EXPECT_EQ(sg.start(), 0u);
}

TEST(StartGap, GapMovesEveryIntervalWrites) {
  StartGapRemapper sg(16, 4);
  EXPECT_FALSE(sg.on_write());
  EXPECT_FALSE(sg.on_write());
  EXPECT_FALSE(sg.on_write());
  EXPECT_TRUE(sg.on_write());  // 4th write moves the gap
  EXPECT_EQ(sg.gap(), 15u);
  EXPECT_EQ(sg.gap_moves(), 1u);
}

TEST(StartGap, MappingSkipsTheGap) {
  StartGapRemapper sg(8, 1);
  sg.on_write();  // gap: 8 -> 7
  // Logical 7 previously mapped to 7; the gap sits there now, so it maps
  // to 8 (the spare row).
  EXPECT_EQ(sg.remap(7), 8u);
  for (unsigned r = 0; r < 7; ++r) EXPECT_EQ(sg.remap(r), r);
}

class StartGapProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(StartGapProperty, AlwaysABijectionIntoRowsPlusOne) {
  const unsigned rows = GetParam();
  StartGapRemapper sg(rows, 1);
  // Walk through several full rotations, checking injectivity each step.
  for (unsigned step = 0; step < rows * (rows + 1) + 3; ++step) {
    std::set<unsigned> physical;
    for (unsigned r = 0; r < rows; ++r) {
      const unsigned p = sg.remap(r);
      EXPECT_LE(p, rows);
      EXPECT_NE(p, sg.gap()) << "mapped onto the gap at step " << step;
      EXPECT_TRUE(physical.insert(p).second)
          << "collision at step " << step << " row " << r;
    }
    sg.on_write();
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, StartGapProperty,
                         ::testing::Values(1u, 2u, 3u, 8u, 13u));

TEST(StartGap, FullSweepAdvancesStart) {
  const unsigned rows = 8;
  StartGapRemapper sg(rows, 1);
  for (unsigned i = 0; i <= rows; ++i) sg.on_write();
  // After rows+1 gap movements the gap has swept the whole array and
  // returned to the top, and the start pointer advanced by one: every
  // logical row now sits one physical row over.
  EXPECT_EQ(sg.start(), 1u);
  EXPECT_EQ(sg.gap(), rows);
  EXPECT_EQ(sg.remap(0), 1u);
}

TEST(StartGap, RotationMovesHotRowAcrossPhysicalRows) {
  // The wear-leveling property: a single hot logical row visits many
  // physical rows over time.
  StartGapRemapper sg(8, 1);
  std::set<unsigned> homes;
  for (int i = 0; i < 9 * 8; ++i) {
    homes.insert(sg.remap(3));
    sg.on_write();
  }
  EXPECT_GE(homes.size(), 8u);
}

MemoryGeometry small_geom() {
  MemoryGeometry g;
  g.channels = 1;
  g.ranks = 2;
  g.banks_per_rank = 2;
  g.rows_per_bank = 16;
  g.cols_per_row = 64;
  return g;
}

TEST(StartGapIntegration, FactoryEnablesPerConfig) {
  ArchConfig cfg;
  cfg.composition = arch_preset("wom");
  cfg.start_gap = true;
  cfg.start_gap_interval = 2;
  const Architecture arch(small_geom(), PcmTiming{}, cfg);
  EXPECT_TRUE(arch.start_gap_enabled());
  const Architecture plain(small_geom(), PcmTiming{}, ArchConfig{});
  EXPECT_FALSE(plain.start_gap_enabled());
}

TEST(StartGapIntegration, WcpcmNeverRemaps) {
  // The WOM-cache indexes by row address, so Start-Gap is rejected with a
  // cache front end rather than silently dropped.
  ArchConfig cfg;
  cfg.composition = arch_preset("wcpcm");
  cfg.start_gap = true;
  try {
    Architecture(small_geom(), PcmTiming{}, cfg);
    FAIL() << "start_gap with a cache front end accepted";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("start_gap"), std::string::npos) << msg;
    EXPECT_NE(msg.find("cache.enabled"), std::string::npos) << msg;
  }
}

TEST(StartGapIntegration, GapMoveChargesRowCopy) {
  ArchConfig cfg;
  cfg.composition = arch_preset("pcm");
  cfg.start_gap = true;
  cfg.start_gap_interval = 2;
  Architecture arch(small_geom(), PcmTiming{}, cfg);
  DecodedAddr d{0, 0, 0, 3, 0};
  const IssuePlan p1 = arch.plan(d, AccessType::kWrite, false, 0);
  EXPECT_EQ(p1.post_ns, 0u);
  const IssuePlan p2 = arch.plan(d, AccessType::kWrite, false, 0);
  // Second write triggers the gap move: one row read + one row write.
  EXPECT_EQ(p2.post_ns, PcmTiming{}.row_read_ns + PcmTiming{}.row_write_ns);
  EXPECT_EQ(arch.counters().get("wl.gap_moves"), 1u);
}

TEST(StartGapIntegration, RemappedRowStaysWithinSpareRange) {
  ArchConfig cfg;
  cfg.composition = arch_preset("pcm");
  cfg.start_gap = true;
  cfg.start_gap_interval = 1;
  Architecture arch(small_geom(), PcmTiming{}, cfg);
  const MemoryGeometry g = small_geom();
  for (int i = 0; i < 100; ++i) {
    DecodedAddr d{0, 0, 0, static_cast<unsigned>(i) % g.rows_per_bank, 0};
    const IssuePlan p = arch.plan(d, AccessType::kWrite, false, 0);
    EXPECT_LE(p.row, g.rows_per_bank);  // may use the spare row
  }
}

}  // namespace
}  // namespace wompcm
