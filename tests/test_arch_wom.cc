// Tests of the WOM coding policy on main memory (Section 3.1) and its
// PCM-refresh extension's row-address tables (Section 3.2), through the
// canonical wom-pcm / pcm-refresh compositions.
#include <gtest/gtest.h>

#include "arch/arch.h"

namespace wompcm {
namespace {

MemoryGeometry small_geom() {
  MemoryGeometry g;
  g.channels = 1;
  g.ranks = 2;
  g.banks_per_rank = 4;
  g.rows_per_bank = 32;
  g.cols_per_row = 64;  // 8 lines/row
  return g;
}

ArchConfig wom_cfg(CodingKind coding = CodingKind::kWomWide,
                   const std::string& code = "rs23-inv") {
  ArchConfig cfg;
  cfg.composition = arch_preset("wom");
  cfg.composition.main_coding = coding;
  cfg.code = code;
  return cfg;
}

ArchConfig refresh_cfg(unsigned rat_entries) {
  ArchConfig cfg;
  cfg.composition = arch_preset("refresh");
  cfg.rat_entries = rat_entries;
  return cfg;
}

TEST(WomPcm, RequiresInvertedCode) {
  EXPECT_THROW(Architecture(small_geom(), PcmTiming{},
                                    wom_cfg(CodingKind::kWomWide,
                                            "rs23")),
               std::invalid_argument);
  EXPECT_THROW(Architecture(small_geom(), PcmTiming{},
                                    wom_cfg(CodingKind::kWomWide,
                                            "no-such-code")),
               std::invalid_argument);
}

TEST(WomPcm, WriteClassSequencePerLine) {
  Architecture arch(small_geom(), PcmTiming{}, wom_cfg());
  EXPECT_EQ(arch.name(), "wom-pcm[rs23-inv,wide-column]");
  DecodedAddr d{0, 0, 0, 3, 2};
  // Cold alpha (-> gen 1), fast (-> gen 2 == t), then alternating
  // alpha/fast as the rewrite cycle repeats.
  const WriteClass expect[] = {WriteClass::kAlpha, WriteClass::kResetOnly,
                               WriteClass::kAlpha, WriteClass::kResetOnly,
                               WriteClass::kAlpha};
  for (const WriteClass e : expect) {
    const IssuePlan p = arch.plan(d, AccessType::kWrite, false, 0);
    EXPECT_EQ(p.write_class, e);
    EXPECT_EQ(p.program_ns, e == WriteClass::kAlpha ? 150u : 40u);
  }
  EXPECT_EQ(arch.counters().get("writes.alpha"), 3u);
  EXPECT_EQ(arch.counters().get("writes.alpha.cold"), 1u);
  EXPECT_EQ(arch.counters().get("writes.fast"), 2u);
}

TEST(WomPcm, LinesTrackIndependently) {
  Architecture arch(small_geom(), PcmTiming{}, wom_cfg());
  DecodedAddr a{0, 0, 0, 3, 0};
  DecodedAddr b{0, 0, 0, 3, 1};
  arch.plan(a, AccessType::kWrite, false, 0);  // cold alpha on line 0
  const IssuePlan p = arch.plan(b, AccessType::kWrite, false, 0);
  EXPECT_EQ(p.write_class, WriteClass::kAlpha);  // cold on its own line
  EXPECT_EQ(arch.counters().get("writes.alpha.cold"), 2u);
}

TEST(WomPcm, WideColumnHasNoExtraAccesses) {
  Architecture arch(small_geom(), PcmTiming{}, wom_cfg());
  DecodedAddr d{0, 0, 0, 3, 0};
  const IssuePlan w = arch.plan(d, AccessType::kWrite, false, 0);
  EXPECT_EQ(w.post_ns, 0u);
  const IssuePlan r = arch.plan(d, AccessType::kRead, false, 0);
  EXPECT_EQ(r.post_ns, 0u);
  EXPECT_EQ(r.program_ns, 0u);
}

TEST(WomPcm, HiddenPageAddsDependentAccess) {
  const PcmTiming t;
  Architecture arch(small_geom(), t,
                            wom_cfg(CodingKind::kWomHidden));
  EXPECT_EQ(arch.name(), "wom-pcm[rs23-inv,hidden-page]");
  DecodedAddr d{0, 0, 0, 3, 0};
  const IssuePlan w = arch.plan(d, AccessType::kWrite, false, 0);
  EXPECT_EQ(w.post_ns, t.burst_ns() + t.tag_check_ns);
  const IssuePlan r = arch.plan(d, AccessType::kRead, false, 0);
  EXPECT_EQ(r.post_ns, t.col_read_ns + t.burst_ns());
  EXPECT_EQ(arch.counters().get("hidden_page.extra_reads"), 1u);
  EXPECT_EQ(arch.counters().get("hidden_page.extra_writes"), 1u);
}

TEST(WomPcm, OverheadMatchesCode) {
  Architecture arch(small_geom(), PcmTiming{}, wom_cfg());
  EXPECT_DOUBLE_EQ(arch.capacity_overhead(), 0.5);
  EXPECT_FALSE(arch.refresh_enabled());
}

TEST(WomPcm, HigherRewriteLimitDelaysAlpha) {
  Architecture arch(
      small_geom(), PcmTiming{},
      wom_cfg(CodingKind::kWomWide, "marker-k2t4-inv"));
  DecodedAddr d{0, 0, 0, 3, 0};
  arch.plan(d, AccessType::kWrite, false, 0);  // cold alpha
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(arch.plan(d, AccessType::kWrite, false, 0).write_class,
              WriteClass::kResetOnly);
  }
  EXPECT_EQ(arch.plan(d, AccessType::kWrite, false, 0).write_class,
            WriteClass::kAlpha);
}

TEST(RefreshWomPcm, RegistersRowsAtLimitInRat) {
  Architecture arch(small_geom(), PcmTiming{}, refresh_cfg(5));
  EXPECT_EQ(arch.name(), "pcm-refresh[rs23-inv,wide-column]");
  EXPECT_TRUE(arch.refresh_enabled());
  DecodedAddr d{0, 0, 0, 3, 0};
  arch.plan(d, AccessType::kWrite, false, 0);
  EXPECT_EQ(arch.rat_size(0), 0u);
  arch.plan(d, AccessType::kWrite, false, 0);  // line reaches the limit
  EXPECT_EQ(arch.rat_size(0), 1u);
  EXPECT_DOUBLE_EQ(arch.refresh_pending_fraction(0, 0), 0.25);  // 1 of 4
  EXPECT_DOUBLE_EQ(arch.refresh_pending_fraction(0, 1), 0.0);
}

TEST(RefreshWomPcm, RatCapacityEvictsOldest) {
  Architecture arch(small_geom(), PcmTiming{}, refresh_cfg(2));
  for (unsigned row = 0; row < 4; ++row) {
    DecodedAddr d{0, 0, 0, row, 0};
    arch.plan(d, AccessType::kWrite, false, 0);
    arch.plan(d, AccessType::kWrite, false, 0);
  }
  EXPECT_EQ(arch.rat_size(0), 2u);
  EXPECT_EQ(arch.counters().get("rat.evict"), 2u);
}

TEST(RefreshWomPcm, PerformRefreshServesMostRecentFirst) {
  Architecture arch(small_geom(), PcmTiming{}, refresh_cfg(5));
  for (unsigned row = 0; row < 3; ++row) {
    DecodedAddr d{0, 0, 0, row, 0};
    arch.plan(d, AccessType::kWrite, false, 0);
    arch.plan(d, AccessType::kWrite, false, 0);
  }
  const auto work = arch.perform_refresh(0, 0, [](unsigned) { return true; });
  EXPECT_EQ(work.rows, 1u);  // one row per bank per command
  EXPECT_EQ(arch.rat_size(0), 2u);
  // The most recent row (row 2) was refreshed: a write to it is fast now.
  DecodedAddr d{0, 0, 0, 2, 0};
  EXPECT_EQ(arch.plan(d, AccessType::kWrite, false, 0).write_class,
            WriteClass::kResetOnly);
}

TEST(RefreshWomPcm, SkipsBusyUnits) {
  Architecture arch(small_geom(), PcmTiming{}, refresh_cfg(5));
  DecodedAddr d{0, 0, 0, 3, 0};
  arch.plan(d, AccessType::kWrite, false, 0);
  arch.plan(d, AccessType::kWrite, false, 0);
  const auto work =
      arch.perform_refresh(0, 0, [](unsigned) { return false; });
  EXPECT_EQ(work.rows, 0u);
  EXPECT_EQ(arch.rat_size(0), 1u);  // entry retained for the next command
}

TEST(RefreshWomPcm, RefreshCoversWholeRankBanks) {
  Architecture arch(small_geom(), PcmTiming{}, refresh_cfg(5));
  for (unsigned bank = 0; bank < 4; ++bank) {
    DecodedAddr d{0, 0, bank, 7, 0};
    arch.plan(d, AccessType::kWrite, false, 0);
    arch.plan(d, AccessType::kWrite, false, 0);
  }
  EXPECT_DOUBLE_EQ(arch.refresh_pending_fraction(0, 0), 1.0);
  const auto work = arch.perform_refresh(0, 0, [](unsigned) { return true; });
  EXPECT_EQ(work.rows, 4u);  // one per bank
  EXPECT_EQ(work.resources.size(), 4u);
  EXPECT_DOUBLE_EQ(arch.refresh_pending_fraction(0, 0), 0.0);
}

}  // namespace
}  // namespace wompcm
