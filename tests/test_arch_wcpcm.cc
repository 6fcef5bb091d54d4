// Tests of the WOM-code cached PCM composition (Section 4): tag/valid
// protocol, victim write-backs, per-line validity, parallel read probing,
// and the cache's own refresh; and the cache's per-row entry on its own.
#include <gtest/gtest.h>

#include "arch/arch.h"
#include "arch/cache_layer.h"

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

ArchConfig wcpcm_cfg(unsigned rat_entries = 5,
                     const std::string& code = "rs23-inv") {
  ArchConfig cfg;
  cfg.composition = arch_preset("wcpcm");
  cfg.rat_entries = rat_entries;
  cfg.code = code;
  return cfg;
}

class WcpcmTest : public ::testing::Test {
 protected:
  WcpcmTest()
      : geom_(small_geom()),
        arch_(geom_, PcmTiming{}, wcpcm_cfg()),
        mapper_(geom_) {}

  unsigned cache_resource(unsigned rank) const {
    return mapper_.num_flat_banks() + rank;
  }

  MemoryGeometry geom_;
  Architecture arch_;
  AddressMapper mapper_;
};

TEST_F(WcpcmTest, KeepsTheLegacyName) {
  EXPECT_EQ(arch_.name(), "wcpcm[rs23-inv]");
}

TEST_F(WcpcmTest, ResourcesIncludePerRankCaches) {
  EXPECT_EQ(arch_.num_resources(), mapper_.num_flat_banks() + geom_.ranks);
}

TEST_F(WcpcmTest, OverheadMatchesPaperFormula) {
  // (1 + 0.5) / banks_per_rank; with 32 banks this is the paper's 4.7%.
  EXPECT_DOUBLE_EQ(arch_.capacity_overhead(), 1.5 / 4.0);
  MemoryGeometry g32 = geom_;
  g32.banks_per_rank = 32;
  Architecture arch32(g32, PcmTiming{}, wcpcm_cfg());
  EXPECT_NEAR(arch32.capacity_overhead(), 0.047, 0.001);
}

TEST_F(WcpcmTest, DemandWritesRouteToCache) {
  DecodedAddr d{0, 1, 2, 3, 0};
  EXPECT_EQ(arch_.route(d, AccessType::kWrite, false), cache_resource(1));
  // Victim (internal) writes go to main memory.
  EXPECT_EQ(arch_.route(d, AccessType::kWrite, true), mapper_.flat_bank(d));
}

TEST_F(WcpcmTest, FirstWriteIsInvalidEntryHit) {
  DecodedAddr d{0, 0, 2, 3, 0};
  const IssuePlan p = arch_.plan(d, AccessType::kWrite, false, 0);
  EXPECT_EQ(p.resource, cache_resource(0));
  EXPECT_TRUE(p.spawned.empty());
  // The cache array is formatted at boot, so the install is RESET-only.
  EXPECT_EQ(p.write_class, WriteClass::kResetOnly);
  EXPECT_EQ(arch_.counters().get("wcpcm.write_hits"), 1u);
}

TEST_F(WcpcmTest, SameBankRowWritesKeepHitting) {
  DecodedAddr d{0, 0, 2, 3, 0};
  arch_.plan(d, AccessType::kWrite, false, 0);
  d.col = 5;
  arch_.plan(d, AccessType::kWrite, false, 0);
  EXPECT_EQ(arch_.counters().get("wcpcm.write_hits"), 2u);
  EXPECT_EQ(arch_.counters().get("wcpcm.write_misses"), 0u);
  EXPECT_DOUBLE_EQ(arch_.write_hit_rate(), 1.0);
}

TEST_F(WcpcmTest, ConflictingBankEvictsVictim) {
  DecodedAddr a{0, 0, 2, 3, 0};
  arch_.plan(a, AccessType::kWrite, false, 0);
  DecodedAddr b{0, 0, 1, 3, 0};  // same rank+row, different bank tag
  const IssuePlan p = arch_.plan(b, AccessType::kWrite, false, 0);
  EXPECT_GT(p.pre_ns, 0u);  // victim readout
  ASSERT_EQ(p.spawned.size(), 1u);
  EXPECT_EQ(p.spawned[0].dec.bank, 2u);  // the evicted bank's row
  EXPECT_EQ(p.spawned[0].dec.row, 3u);
  EXPECT_EQ(arch_.counters().get("wcpcm.victims"), 1u);
  EXPECT_EQ(arch_.counters().get("wcpcm.write_misses"), 1u);
}

TEST_F(WcpcmTest, ReadHitsOnlyWrittenLines) {
  DecodedAddr w{0, 0, 2, 3, 0};
  arch_.plan(w, AccessType::kWrite, false, 0);
  // Same line: cache hit, served by the cache array.
  EXPECT_EQ(arch_.route(w, AccessType::kRead, false), cache_resource(0));
  const IssuePlan hit = arch_.plan(w, AccessType::kRead, false, 0);
  EXPECT_EQ(hit.resource, cache_resource(0));
  // Another line of the same row was never written: main memory is current.
  DecodedAddr other = w;
  other.col = 4;
  EXPECT_EQ(arch_.route(other, AccessType::kRead, false),
            mapper_.flat_bank(other));
  // Different bank, same row index: tag mismatch, main memory.
  DecodedAddr miss = w;
  miss.bank = 1;
  EXPECT_EQ(arch_.route(miss, AccessType::kRead, false),
            mapper_.flat_bank(miss));
  arch_.plan(other, AccessType::kRead, false, 0);
  arch_.plan(miss, AccessType::kRead, false, 0);
  EXPECT_EQ(arch_.counters().get("wcpcm.read_hits"), 1u);
  EXPECT_EQ(arch_.counters().get("wcpcm.read_misses"), 2u);
}

TEST_F(WcpcmTest, InstallAfterEvictionResetsLineValidity) {
  DecodedAddr a{0, 0, 2, 3, 0};
  DecodedAddr a2{0, 0, 2, 3, 5};
  arch_.plan(a, AccessType::kWrite, false, 0);
  arch_.plan(a2, AccessType::kWrite, false, 0);
  DecodedAddr b{0, 0, 1, 3, 0};
  arch_.plan(b, AccessType::kWrite, false, 0);  // evicts bank 2's row
  // Bank 1's line 0 is now cached; bank 2's lines are not.
  EXPECT_EQ(arch_.route(b, AccessType::kRead, false), cache_resource(0));
  EXPECT_EQ(arch_.route(a, AccessType::kRead, false), mapper_.flat_bank(a));
  // Bank 1's line 5 was never written since install either.
  DecodedAddr b5 = b;
  b5.col = 5;
  EXPECT_EQ(arch_.route(b5, AccessType::kRead, false),
            mapper_.flat_bank(b5));
}

TEST_F(WcpcmTest, ReadsPayTagCheckBothWays) {
  const PcmTiming t;
  DecodedAddr w{0, 0, 2, 3, 0};
  arch_.plan(w, AccessType::kWrite, false, 0);
  const IssuePlan hit = arch_.plan(w, AccessType::kRead, false, 0);
  EXPECT_EQ(hit.pre_ns, t.tag_check_ns);
  DecodedAddr miss = w;
  miss.bank = 1;
  const IssuePlan m = arch_.plan(miss, AccessType::kRead, false, 0);
  EXPECT_EQ(m.pre_ns, t.tag_check_ns);
}

TEST_F(WcpcmTest, VictimWritesAreConventional) {
  DecodedAddr d{0, 0, 2, 3, 0};
  const IssuePlan p = arch_.plan(d, AccessType::kWrite, true, 0);
  EXPECT_EQ(p.write_class, WriteClass::kAlpha);
  EXPECT_EQ(p.program_ns, 150u);
  EXPECT_EQ(p.resource, mapper_.flat_bank(d));
  EXPECT_EQ(arch_.counters().get("writes.victim"), 1u);
}

TEST_F(WcpcmTest, CacheRefreshCycle) {
  // Write the same cache line until its codeword hits the rewrite limit,
  // then refresh the cache array and verify the next write is fast again.
  DecodedAddr d{0, 0, 2, 3, 0};
  arch_.plan(d, AccessType::kWrite, false, 0);  // gen 1 (erased start)
  arch_.plan(d, AccessType::kWrite, false, 0);  // gen 2 == limit
  EXPECT_DOUBLE_EQ(arch_.refresh_pending_fraction(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(arch_.refresh_pending_fraction(0, 1), 0.0);
  const auto work = arch_.perform_refresh(0, 0, [](unsigned) { return true; });
  EXPECT_EQ(work.rows, 1u);
  ASSERT_EQ(work.resources.size(), 1u);
  EXPECT_EQ(work.resources[0], cache_resource(0));
  const IssuePlan p = arch_.plan(d, AccessType::kWrite, false, 0);
  EXPECT_EQ(p.write_class, WriteClass::kResetOnly);
}

TEST_F(WcpcmTest, CacheAlphaWithoutRefresh) {
  DecodedAddr d{0, 0, 2, 3, 0};
  arch_.plan(d, AccessType::kWrite, false, 0);
  arch_.plan(d, AccessType::kWrite, false, 0);
  const IssuePlan p = arch_.plan(d, AccessType::kWrite, false, 0);
  EXPECT_EQ(p.write_class, WriteClass::kAlpha);
  EXPECT_EQ(p.program_ns, 150u);
}

TEST_F(WcpcmTest, RefreshResourceIsTheCacheArrayOnly) {
  const auto res = arch_.refresh_resources(0, 1);
  ASSERT_EQ(res.size(), 1u);
  EXPECT_EQ(res[0], cache_resource(1));
}

TEST_F(WcpcmTest, RejectsBadCode) {
  EXPECT_THROW(
      Architecture(geom_, PcmTiming{}, wcpcm_cfg(5, "rs23")),
      std::invalid_argument);
  EXPECT_THROW(
      Architecture(geom_, PcmTiming{}, wcpcm_cfg(5, "no-such-code")),
      std::invalid_argument);
}

// The per-row entry, driven directly: a miss re-banks the occupant,
// retirement drops the occupant and its lines, and a row can die before
// it was ever installed. 128 lines per row, so each entry spans two line
// words and neighbouring entries sit back to back.
TEST(CacheRowEntry, InstallRebankInvalidateAndDeath) {
  MemoryGeometry g = small_geom();
  g.cols_per_row = 1024;
  ASSERT_EQ(g.lines_per_row(), 128u);
  CacheLayer cache(g);
  ASSERT_EQ(cache.arrays(), 2u);
  EXPECT_FALSE(cache.valid(1, 3));
  EXPECT_FALSE(cache.row_dead(1, 3));
  EXPECT_FALSE(cache.line_set(1, 3, 5));

  cache.install(1, 3, /*bank=*/2, /*line=*/5);
  cache.install(1, 3, /*bank=*/2, /*line=*/127);
  cache.install(1, 4, /*bank=*/1, /*line=*/70);
  EXPECT_TRUE(cache.valid(1, 3));
  EXPECT_EQ(cache.installed_bank(1, 3), 2u);
  EXPECT_TRUE(cache.line_set(1, 3, 5));
  EXPECT_TRUE(cache.line_set(1, 3, 127));
  EXPECT_FALSE(cache.line_set(1, 3, 70));
  EXPECT_TRUE(cache.probe_read_hit(DecodedAddr{0, 1, 2, 3, 127}));
  EXPECT_FALSE(cache.probe_read_hit(DecodedAddr{0, 1, 1, 3, 127}));
  EXPECT_FALSE(cache.probe_read_hit(DecodedAddr{0, 1, 2, 3, 6}));
  EXPECT_EQ(cache.installed_bank(1, 4), 1u);
  EXPECT_TRUE(cache.line_set(1, 4, 70));
  EXPECT_FALSE(cache.line_set(1, 4, 127));
  EXPECT_FALSE(cache.valid(0, 3));  // the other rank's array is untouched

  // A miss: eviction flushes the lines, the install re-banks the row.
  cache.evict_lines(1, 3);
  cache.install(1, 3, /*bank=*/3, /*line=*/1);
  EXPECT_EQ(cache.installed_bank(1, 3), 3u);
  EXPECT_TRUE(cache.line_set(1, 3, 1));
  EXPECT_FALSE(cache.line_set(1, 3, 5));
  EXPECT_FALSE(cache.line_set(1, 3, 127));
  EXPECT_TRUE(cache.line_set(1, 4, 70));  // the neighbour keeps its lines

  // Retirement: the occupant and its lines go, the row stays dead.
  cache.retire(1, 3);
  EXPECT_FALSE(cache.valid(1, 3));
  EXPECT_FALSE(cache.line_set(1, 3, 1));
  EXPECT_TRUE(cache.row_dead(1, 3));
  EXPECT_FALSE(cache.row_dead(1, 4));
  EXPECT_TRUE(cache.valid(1, 4));

  // A row can die on its first write, before any install.
  cache.retire(0, 7);
  EXPECT_TRUE(cache.row_dead(0, 7));
  EXPECT_FALSE(cache.valid(0, 7));
  EXPECT_FALSE(cache.row_dead(0, 6));
}

}  // namespace
}  // namespace wompcm
