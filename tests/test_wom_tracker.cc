// Tests for the per-line WOM generation rule of the row table
// (arch/row_table.h), driven as a WOM-coded region drives it: claim the
// row, then record the write under the code's rewrite limit.
#include <gtest/gtest.h>

#include "arch/row_table.h"

namespace wompcm {
namespace {

// One WOM-coded region of rewrite limit `t` over its own row table.
struct Region {
  Region(unsigned limit, unsigned lines, bool erased_start = false)
      : t(limit),
        initial(erased_start ? 0 : RowTable::kUnknownGen),
        rows(lines, /*generations=*/true, /*fault_states=*/false) {}

  RowTable::WriteRecord write(RowKey row, unsigned line) {
    return rows.record_write(rows.claim(row, initial), line, t);
  }
  // Generation of a line; a row never claimed reads its initial value.
  unsigned generation(RowKey row, unsigned line) const {
    const std::uint32_t id = rows.find(row);
    return id == 0 ? initial : rows.generation(id, line);
  }
  bool has_limit_lines(RowKey row) const {
    const std::uint32_t id = rows.find(row);
    return id != 0 && rows.has_limit_lines(id);
  }
  // PCM-refresh as CodingPolicy::refresh_row runs it.
  bool refresh(RowKey row) {
    const std::uint32_t id = rows.find(row);
    return id != 0 && rows.erase(id);
  }

  unsigned t;
  std::uint8_t initial;
  RowTable rows;
};

TEST(WomStateTracker, UnknownLinesStartAlpha) {
  Region t(2, 8);
  EXPECT_EQ(t.generation(5, 3), RowTable::kUnknownGen);
  const auto r = t.write(5, 3);
  EXPECT_EQ(r.cls, WriteClass::kAlpha);
  EXPECT_TRUE(r.cold);
  EXPECT_EQ(t.generation(5, 3), 1u);
}

TEST(WomStateTracker, ErasedStartSkipsColdAlpha) {
  Region t(2, 8, /*erased_start=*/true);
  EXPECT_EQ(t.generation(5, 3), 0u);
  const auto r = t.write(5, 3);
  EXPECT_EQ(r.cls, WriteClass::kResetOnly);
  EXPECT_FALSE(r.cold);
  EXPECT_EQ(t.generation(5, 3), 1u);
}

TEST(WomStateTracker, AlphaEveryTPlusOneWritesAfterCold) {
  // t = 2: cold alpha, then F A F A ...
  Region t(2, 4);
  const auto cold = t.write(1, 0);
  EXPECT_EQ(cold.cls, WriteClass::kAlpha);
  EXPECT_TRUE(cold.cold);
  EXPECT_EQ(t.write(1, 0).cls, WriteClass::kResetOnly);
  const auto alpha = t.write(1, 0);
  EXPECT_EQ(alpha.cls, WriteClass::kAlpha);
  EXPECT_FALSE(alpha.cold);  // only the first touch is cold
  EXPECT_EQ(t.write(1, 0).cls, WriteClass::kResetOnly);
  EXPECT_EQ(t.write(1, 0).cls, WriteClass::kAlpha);
}

TEST(WomStateTracker, LinesAreIndependent) {
  Region t(2, 4);
  t.write(1, 0);
  t.write(1, 0);  // line 0 at limit now
  EXPECT_EQ(t.generation(1, 0), 2u);
  EXPECT_EQ(t.generation(1, 1), RowTable::kUnknownGen);
  EXPECT_EQ(t.write(1, 1).cls, WriteClass::kAlpha);  // cold, own line
  EXPECT_EQ(t.generation(1, 0), 2u);  // untouched by line 1's write
}

TEST(WomStateTracker, RowHasLimitLines) {
  Region t(2, 4);
  EXPECT_FALSE(t.has_limit_lines(9));
  t.write(9, 2);
  EXPECT_FALSE(t.has_limit_lines(9));  // gen 1 < t
  t.write(9, 2);
  EXPECT_TRUE(t.has_limit_lines(9));  // gen 2 == t
  t.write(9, 2);                      // alpha resets the cycle
  EXPECT_FALSE(t.has_limit_lines(9));
}

TEST(WomStateTracker, RefreshErasesWholeRow) {
  Region t(2, 4);
  t.write(3, 0);
  t.write(3, 0);  // line 0 at limit
  t.write(3, 1);  // line 1 cold alpha -> gen 1
  ASSERT_TRUE(t.has_limit_lines(3));
  EXPECT_TRUE(t.refresh(3));
  EXPECT_FALSE(t.has_limit_lines(3));
  EXPECT_EQ(t.generation(3, 0), 0u);
  EXPECT_EQ(t.generation(3, 1), 0u);
  EXPECT_EQ(t.generation(3, 2), 0u);  // never-written lines also erased
  // Next writes to any line of the row are fast.
  EXPECT_EQ(t.write(3, 2).cls, WriteClass::kResetOnly);
}

TEST(WomStateTracker, RefreshOnUntrackedRowIsNoop) {
  Region t(2, 4);
  EXPECT_FALSE(t.refresh(77));
  EXPECT_EQ(t.rows.rows(), 0u);  // a refresh never claims a row
}

TEST(WomStateTracker, RefreshWithoutLimitLinesReportsUseless) {
  Region t(2, 4);
  t.write(3, 0);  // gen 1
  EXPECT_FALSE(t.refresh(3));  // erased anyway, but not "useful"
  EXPECT_EQ(t.generation(3, 0), 0u);
}

TEST(WomStateTracker, SingleWriteCodeAlwaysAlphaAfterFirst) {
  Region t(1, 2);
  EXPECT_EQ(t.write(0, 0).cls, WriteClass::kAlpha);  // cold
  EXPECT_TRUE(t.has_limit_lines(0));  // t=1: gen 1 is at the limit
  EXPECT_EQ(t.write(0, 0).cls, WriteClass::kAlpha);
  EXPECT_TRUE(t.has_limit_lines(0));
}

class TrackerLimitSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(TrackerLimitSweep, SteadyStateAlphaRate) {
  // In steady state, exactly one write in t is alpha.
  const unsigned t = GetParam();
  Region region(t, 1);
  region.write(0, 0);  // warm the line past the cold write
  unsigned alphas = 0;
  constexpr unsigned kWrites = 120;
  for (unsigned i = 0; i < kWrites; ++i) {
    if (region.write(0, 0).cls == WriteClass::kAlpha) ++alphas;
  }
  EXPECT_NEAR(static_cast<double>(alphas),
              static_cast<double>(kWrites) / t, 1.0);
}

INSTANTIATE_TEST_SUITE_P(Limits, TrackerLimitSweep,
                         ::testing::Values(1u, 2u, 3u, 4u, 8u));

TEST(WomStateTracker, TrackedRowsGrowLazily) {
  Region t(2, 16);
  EXPECT_EQ(t.rows.rows(), 0u);
  t.write(1, 0);
  t.write(2, 0);
  t.write(1, 5);
  EXPECT_EQ(t.rows.rows(), 2u);
}

}  // namespace
}  // namespace wompcm
