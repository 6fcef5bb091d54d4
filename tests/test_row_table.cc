// The row table's lookup count: every planned write reaches its row's
// generations, wear and fault state through one hash lookup, and a write
// that remaps its row to a spare pays one more for the spare.
#include <gtest/gtest.h>

#include <string>

#include "arch/arch.h"
#include "common/rng.h"

namespace wompcm {
namespace {

MemoryGeometry small_geom() {
  MemoryGeometry g;
  g.channels = 2;
  g.ranks = 2;
  g.banks_per_rank = 4;
  g.rows_per_bank = 64;
  g.cols_per_row = 64;  // 8 lines/row
  return g;
}

DecodedAddr random_addr(Rng& rng, const MemoryGeometry& g) {
  DecodedAddr d;
  d.channel = static_cast<unsigned>(rng.next_below(g.channels));
  d.rank = static_cast<unsigned>(rng.next_below(g.ranks));
  d.bank = static_cast<unsigned>(rng.next_below(g.banks_per_rank));
  d.row = static_cast<unsigned>(rng.next_below(g.rows_per_bank));
  d.col = static_cast<unsigned>(rng.next_below(g.lines_per_row()));
  return d;
}

// Lookups one plan() call made.
std::uint64_t lookups_of(Architecture& arch, const DecodedAddr& dec,
                         AccessType type, bool internal, IssuePlan* out) {
  const std::uint64_t before = arch.rows().lookups();
  *out = arch.plan(dec, type, internal, /*now=*/0);
  return arch.rows().lookups() - before;
}

TEST(RowTableLookups, OnePerPlannedWrite) {
  const MemoryGeometry g = small_geom();
  for (const char* preset : {"refresh", "wcpcm", "pcm"}) {
    for (const bool faults : {false, true}) {
      SCOPED_TRACE(std::string(preset) + (faults ? " faults on" : ""));
      ArchConfig cfg;
      cfg.composition = arch_preset(preset);
      FaultConfig fault;
      fault.enabled = faults;  // default endurance: no line fails here
      Architecture arch(g, PcmTiming{}, cfg, fault);
      Rng rng(5);
      std::uint64_t writes = 0;
      for (int i = 0; i < 4000; ++i) {
        const DecodedAddr dec = random_addr(rng, g);
        const AccessType type =
            rng.next_bool(0.7) ? AccessType::kWrite : AccessType::kRead;
        IssuePlan p;
        const std::uint64_t n = lookups_of(arch, dec, type, false, &p);
        ASSERT_EQ(n, type == AccessType::kWrite ? 1u : 0u) << i;
        // Victim write-backs are writes of their own, planned as the
        // controller plans them.
        for (const SpawnedWrite& s : p.spawned) {
          IssuePlan victim;
          ASSERT_EQ(lookups_of(arch, s.dec, AccessType::kWrite, true, &victim),
                    1u)
              << i;
          ++writes;
        }
        if (type == AccessType::kWrite) ++writes;
      }
      EXPECT_EQ(arch.rows().lookups(), writes);
      if (std::string(preset) == "wcpcm") {
        EXPECT_GT(arch.counters().get("wcpcm.victims"), 0u);
      }
    }
  }
}

TEST(RowTableLookups, RemapToASpareClaimsTheSpare) {
  // One line hammered past a tiny endurance budget: each write that
  // retires its row to a spare looks up the dead row and the spare.
  const MemoryGeometry g = small_geom();
  for (const char* preset : {"refresh", "pcm"}) {
    SCOPED_TRACE(preset);
    ArchConfig cfg;
    cfg.composition = arch_preset(preset);
    FaultConfig fault;
    fault.enabled = true;
    fault.endurance = 4.0;
    fault.sigma = 0.0;
    fault.spare_rows = 4;
    Architecture arch(g, PcmTiming{}, cfg, fault);
    const DecodedAddr dec{1, 0, 2, 7, 3};
    std::uint64_t remaps = 0;
    for (int i = 0; i < 60; ++i) {
      IssuePlan p;
      const std::uint64_t n =
          lookups_of(arch, dec, AccessType::kWrite, false, &p);
      const std::uint64_t now_remapped = arch.remapper()->remapped_rows();
      ASSERT_EQ(n, now_remapped > remaps ? 2u : 1u) << i;
      remaps = now_remapped;
    }
    EXPECT_EQ(remaps, 4u);  // the bank's spares all went to this row
  }
}

}  // namespace
}  // namespace wompcm
