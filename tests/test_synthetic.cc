// Tests of the synthetic workload generator: determinism, stream
// statistics, and the placement/locality properties the architectures
// depend on.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "trace/synthetic.h"

namespace wompcm {
namespace {

WorkloadProfile test_profile() {
  WorkloadProfile p;
  p.name = "unit";
  p.suite = "test";
  p.write_fraction = 0.4;
  p.footprint_pages = 4096;
  p.write_zipf = 1.0;
  p.read_zipf = 0.8;
  p.line_zipf = 1.0;
  p.stay_prob = 0.4;
  p.burst_len_mean = 10;
  p.intra_gap_ns = 20;
  p.idle_gap_mean_ns = 500;
  p.rewrite_frac = 0.5;
  p.read_write_affinity = 0.3;
  return p;
}

TEST(WorkloadProfile, Validation) {
  WorkloadProfile p = test_profile();
  EXPECT_TRUE(p.valid());
  p.write_fraction = 1.5;
  EXPECT_FALSE(p.valid());
  p = test_profile();
  p.footprint_pages = 0;
  EXPECT_FALSE(p.valid());
  p = test_profile();
  p.stay_prob = 1.0;
  EXPECT_FALSE(p.valid());
  p = test_profile();
  p.burst_len_mean = 0.5;
  EXPECT_FALSE(p.valid());
  p = test_profile();
  p.rewrite_frac = -0.1;
  EXPECT_FALSE(p.valid());
  p = test_profile();
  p.history_depth = 0;
  EXPECT_FALSE(p.valid());
  p = test_profile();
  p.cluster_frac = 1.2;
  EXPECT_FALSE(p.valid());
  p = test_profile();
  p.mlp_streams = 0;
  EXPECT_FALSE(p.valid());
}

TEST(SyntheticTrace, DeterministicForSeed) {
  const MemoryGeometry geom;
  SyntheticTraceSource a(test_profile(), geom, 42, 5000);
  SyntheticTraceSource b(test_profile(), geom, 42, 5000);
  for (int i = 0; i < 5000; ++i) {
    const auto ra = a.next();
    const auto rb = b.next();
    ASSERT_TRUE(ra.has_value());
    ASSERT_TRUE(rb.has_value());
    EXPECT_EQ(ra->dec, rb->dec);
    EXPECT_EQ(ra->gap, rb->gap);
    EXPECT_EQ(ra->type, rb->type);
  }
  EXPECT_FALSE(a.next().has_value());
}

TEST(SyntheticTrace, DifferentSeedsDiffer) {
  const MemoryGeometry geom;
  SyntheticTraceSource a(test_profile(), geom, 1, 1000);
  SyntheticTraceSource b(test_profile(), geom, 2, 1000);
  int same = 0;
  for (int i = 0; i < 1000; ++i) {
    if (a.next()->dec == b.next()->dec) ++same;
  }
  EXPECT_LT(same, 100);
}

TEST(SyntheticTrace, ProducesExactlyRequestedCount) {
  const MemoryGeometry geom;
  SyntheticTraceSource src(test_profile(), geom, 3, 777);
  int n = 0;
  while (src.next().has_value()) ++n;
  EXPECT_EQ(n, 777);
}

TEST(SyntheticTrace, WriteFractionRespected) {
  const MemoryGeometry geom;
  SyntheticTraceSource src(test_profile(), geom, 7, 20000);
  int writes = 0;
  while (const auto r = src.next()) {
    writes += r->type == AccessType::kWrite ? 1 : 0;
  }
  EXPECT_NEAR(writes / 20000.0, 0.4, 0.02);
}

// Every coordinate is in range, so each record is one line of the array.
TEST(SyntheticTrace, AddressesAreLineAligned) {
  MemoryGeometry geom;
  geom.channels = 2;
  SyntheticTraceSource src(test_profile(), geom, 11, 2000);
  while (const auto r = src.next()) {
    EXPECT_LT(r->dec.channel, geom.channels);
    EXPECT_LT(r->dec.rank, geom.ranks);
    EXPECT_LT(r->dec.bank, geom.banks_per_rank);
    EXPECT_LT(r->dec.row, geom.rows_per_bank);
    EXPECT_LT(r->dec.col, geom.lines_per_row());
  }
}

TEST(SyntheticTrace, FirstRecordHasZeroGap) {
  const MemoryGeometry geom;
  SyntheticTraceSource src(test_profile(), geom, 13, 10);
  EXPECT_EQ(src.next()->gap, 0u);
}

TEST(SyntheticTrace, RewriteLocalityProducesLineReuse) {
  const MemoryGeometry geom;
  WorkloadProfile p = test_profile();
  p.rewrite_frac = 0.8;
  p.stay_prob = 0.0;
  SyntheticTraceSource src(p, geom, 17, 20000);
  const AddressMapper mapper(geom);
  std::map<std::uint64_t, int> write_counts;  // by line id
  while (const auto r = src.next()) {
    if (r->type == AccessType::kWrite) ++write_counts[mapper.line_id(r->dec)];
  }
  std::uint64_t rewrites = 0, writes = 0;
  for (const auto& [line, n] : write_counts) {
    writes += static_cast<std::uint64_t>(n);
    rewrites += static_cast<std::uint64_t>(n - 1);
  }
  // High rewrite_frac means most writes revisit an existing line.
  EXPECT_GT(static_cast<double>(rewrites) / static_cast<double>(writes),
            0.5);
}

TEST(SyntheticTrace, ZeroRewriteLocalityMostlyFreshLines) {
  const MemoryGeometry geom;
  WorkloadProfile p = test_profile();
  p.rewrite_frac = 0.0;
  p.stay_prob = 0.0;
  p.write_zipf = 0.2;
  p.line_zipf = 0.2;
  p.footprint_pages = 32768;
  SyntheticTraceSource src(p, geom, 19, 10000);
  const AddressMapper mapper(geom);
  std::set<std::uint64_t> lines;
  std::uint64_t writes = 0;
  while (const auto r = src.next()) {
    if (r->type == AccessType::kWrite) {
      ++writes;
      lines.insert(mapper.line_id(r->dec));
    }
  }
  EXPECT_GT(static_cast<double>(lines.size()) / static_cast<double>(writes),
            0.85);
}

TEST(SyntheticTrace, FootprintBoundsDistinctPages) {
  const MemoryGeometry geom;
  WorkloadProfile p = test_profile();
  p.footprint_pages = 64;
  p.cluster_frac = 0.0;  // hash placement: distinct pages, distinct rows
  SyntheticTraceSource src(p, geom, 23, 20000);
  std::set<std::pair<unsigned, std::uint64_t>> rows;
  while (const auto r = src.next()) {
    const DecodedAddr& d = r->dec;
    rows.insert({d.rank, static_cast<std::uint64_t>(d.bank) * 1000000 + d.row});
  }
  EXPECT_LE(rows.size(), 64u);
}

TEST(SyntheticTrace, GapsReflectBurstStructure) {
  const MemoryGeometry geom;
  WorkloadProfile p = test_profile();
  p.intra_gap_ns = 25;
  p.idle_gap_mean_ns = 10000;
  SyntheticTraceSource src(p, geom, 29, 20000);
  std::uint64_t intra = 0, idle = 0;
  src.next();  // skip the first (gap 0)
  while (const auto r = src.next()) {
    (r->gap == 25 ? intra : idle) += 1;
  }
  EXPECT_GT(intra, idle);  // bursts dominate record counts
  EXPECT_GT(idle, 0u);
}

}  // namespace
}  // namespace wompcm
