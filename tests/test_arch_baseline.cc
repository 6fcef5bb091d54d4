// Tests of the architecture interface basics and the conventional-PCM and
// Flip-N-Write coding policies (through their canonical compositions).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "arch/arch.h"

namespace wompcm {
namespace {

MemoryGeometry small_geom() {
  MemoryGeometry g;
  g.channels = 1;
  g.ranks = 2;
  g.banks_per_rank = 4;
  g.rows_per_bank = 32;
  g.cols_per_row = 64;
  return g;
}

ArchConfig baseline_cfg() {
  ArchConfig cfg;
  cfg.composition = arch_preset("pcm");
  return cfg;
}

ArchConfig fnw_cfg(double fast_fraction, std::uint64_t seed) {
  ArchConfig cfg;
  cfg.composition = arch_preset("fnw");
  cfg.fnw_fast_fraction = fast_fraction;
  cfg.seed = seed;
  return cfg;
}

TEST(BaselinePcm, EveryWriteIsSlowEveryTime) {
  Architecture arch(small_geom(), PcmTiming{}, baseline_cfg());
  EXPECT_EQ(arch.name(), "pcm");
  DecodedAddr d{0, 1, 2, 3, 4};
  for (int i = 0; i < 5; ++i) {
    const IssuePlan p = arch.plan(d, AccessType::kWrite, false, 0);
    EXPECT_EQ(p.write_class, WriteClass::kAlpha);
    EXPECT_EQ(p.program_ns, 150u);
    EXPECT_EQ(p.pre_ns, 0u);
    EXPECT_EQ(p.post_ns, 0u);
    EXPECT_TRUE(p.spawned.empty());
  }
  EXPECT_EQ(arch.counters().get("writes.slow"), 5u);
}

TEST(BaselinePcm, ReadsHaveNoProgramPhase) {
  Architecture arch(small_geom(), PcmTiming{}, baseline_cfg());
  DecodedAddr d{0, 0, 0, 7, 0};
  const IssuePlan p = arch.plan(d, AccessType::kRead, false, 0);
  EXPECT_EQ(p.program_ns, 0u);
  EXPECT_EQ(p.row, 7u);
  EXPECT_EQ(arch.counters().get("reads"), 1u);
}

TEST(BaselinePcm, RoutesToFlatBank) {
  const MemoryGeometry g = small_geom();
  Architecture arch(g, PcmTiming{}, baseline_cfg());
  AddressMapper mapper(g);
  DecodedAddr d{0, 1, 3, 0, 0};
  EXPECT_EQ(arch.route(d, AccessType::kRead, false), mapper.flat_bank(d));
  EXPECT_EQ(arch.num_resources(), mapper.num_flat_banks());
}

TEST(BaselinePcm, NoRefreshHooks) {
  Architecture arch(small_geom(), PcmTiming{}, baseline_cfg());
  EXPECT_FALSE(arch.refresh_enabled());
  EXPECT_DOUBLE_EQ(arch.refresh_pending_fraction(0, 0), 0.0);
  const auto work = arch.perform_refresh(0, 0, [](unsigned) { return true; });
  EXPECT_EQ(work.rows, 0u);
  EXPECT_DOUBLE_EQ(arch.capacity_overhead(), 0.0);
}

TEST(BaselinePcm, RefreshResourcesCoverRankBanks) {
  const MemoryGeometry g = small_geom();
  Architecture arch(g, PcmTiming{}, baseline_cfg());
  const auto res = arch.refresh_resources(0, 1);
  ASSERT_EQ(res.size(), g.banks_per_rank);
  EXPECT_EQ(res.front(), g.banks_per_rank);  // rank 1 starts after rank 0
}

TEST(BaselinePcm, IgnoresUnresolvableCodeName) {
  // A composition with no WOM-coded region never resolves cfg.code.
  ArchConfig cfg = baseline_cfg();
  cfg.code = "no-such-code";
  Architecture arch(small_geom(), PcmTiming{}, cfg);
  EXPECT_EQ(arch.name(), "pcm");
  EXPECT_DOUBLE_EQ(arch.capacity_overhead(), 0.0);
}

TEST(FlipNWrite, DefaultNeverFast) {
  Architecture arch(small_geom(), PcmTiming{}, fnw_cfg(0.0, 1));
  EXPECT_EQ(arch.name(), "flip-n-write");
  DecodedAddr d{0, 0, 0, 1, 0};
  for (int i = 0; i < 20; ++i) {
    const IssuePlan p = arch.plan(d, AccessType::kWrite, false, 0);
    EXPECT_EQ(p.write_class, WriteClass::kAlpha);
  }
  EXPECT_EQ(arch.counters().get("writes.fast"), 0u);
}

TEST(FlipNWrite, FastFractionRoughlyHonored) {
  Architecture arch(small_geom(), PcmTiming{}, fnw_cfg(0.5, 7));
  DecodedAddr d{0, 0, 0, 1, 0};
  for (int i = 0; i < 2000; ++i) {
    arch.plan(d, AccessType::kWrite, false, 0);
  }
  const double fast = static_cast<double>(arch.counters().get("writes.fast"));
  EXPECT_NEAR(fast / 2000.0, 0.5, 0.05);

  // The fast/slow draws are keyed per channel: on two channels, channel 0
  // replays the one-channel sequence and channel 1 draws its own.
  MemoryGeometry two = small_geom();
  two.channels = 2;
  Architecture single(small_geom(), PcmTiming{}, fnw_cfg(0.5, 7));
  Architecture dual(two, PcmTiming{}, fnw_cfg(0.5, 7));
  std::vector<WriteClass> s, c0, c1;
  for (int i = 0; i < 64; ++i) {
    s.push_back(single.plan(d, AccessType::kWrite, false, 0).write_class);
    c0.push_back(dual.plan(DecodedAddr{0, 0, 0, 1, 0}, AccessType::kWrite,
                           false, 0)
                     .write_class);
    c1.push_back(dual.plan(DecodedAddr{1, 0, 0, 1, 0}, AccessType::kWrite,
                           false, 0)
                     .write_class);
  }
  EXPECT_EQ(c0, s);
  EXPECT_NE(c1, c0);
}

TEST(FlipNWrite, HalvesWriteEnergyVersusBaseline) {
  const MemoryGeometry g = small_geom();
  Architecture base(g, PcmTiming{}, baseline_cfg());
  Architecture fnw(g, PcmTiming{}, fnw_cfg(0.0, 1));
  DecodedAddr d{0, 0, 0, 1, 0};
  for (int i = 0; i < 10; ++i) {
    base.plan(d, AccessType::kWrite, false, 0);
    fnw.plan(d, AccessType::kWrite, false, 0);
  }
  EXPECT_NEAR(fnw.energy().write_pj(), base.energy().write_pj() / 2.0,
              base.energy().write_pj() * 0.01);
  EXPECT_GT(fnw.capacity_overhead(), 0.0);  // the flip bits
}

TEST(Factory, BuildsEveryKind) {
  const MemoryGeometry g = small_geom();
  const PcmTiming t;
  for (const char* preset : {"pcm", "wom", "refresh", "wcpcm", "fnw"}) {
    ArchConfig cfg;
    cfg.composition = arch_preset(preset);
    const auto arch = std::make_unique<Architecture>(g, t, cfg);
    ASSERT_NE(arch, nullptr);
    EXPECT_FALSE(arch->name().empty());
  }
}

TEST(Factory, RejectsNonInvertedCodeForWomArchitectures) {
  ArchConfig cfg;
  cfg.composition = arch_preset("wom");
  cfg.code = "rs23";  // conventional direction: illegal for PCM
  EXPECT_THROW(Architecture(small_geom(), PcmTiming{}, cfg),
               std::invalid_argument);
  cfg.code = "no-such-code";
  EXPECT_THROW(Architecture(small_geom(), PcmTiming{}, cfg),
               std::invalid_argument);
}

TEST(Factory, RejectsBadGeometryAndTiming) {
  ArchConfig cfg;
  MemoryGeometry g = small_geom();
  g.ranks = 3;
  EXPECT_THROW(Architecture(g, PcmTiming{}, cfg), std::invalid_argument);
  PcmTiming t;
  t.reset_ns = 0;
  EXPECT_THROW(Architecture(small_geom(), t, cfg), std::invalid_argument);
}

}  // namespace
}  // namespace wompcm
