// Tests of the row table's cell-wear accounting and the lifetime
// projection (pcm/endurance.h).
#include <gtest/gtest.h>

#include <cmath>

#include "arch/row_table.h"
#include "pcm/endurance.h"

namespace wompcm {
namespace {

// A wear-only row table (no WOM-coded region, faults off), charged the way
// CodingPolicy charges it.
struct Wear {
  explicit Wear(unsigned lines) : rows(lines, false, false) {}

  void on_write(RowKey row, unsigned line, WriteClass cls) {
    on_write_pulses(row, line,
                    cls == WriteClass::kResetOnly ? kResetOnlyWearPerCell
                                                  : kAlphaWearPerCell);
  }
  void on_write_pulses(RowKey row, unsigned line, double pulses) {
    rows.add_wear(rows.claim(row), line, pulses);
  }
  void on_refresh(RowKey row) {
    rows.add_row_wear(rows.claim(row), kRefreshWearPerCell);
  }

  RowTable rows;
};

TEST(WearTracker, StartsClean) {
  Wear w(8);
  EXPECT_DOUBLE_EQ(w.rows.total_wear(), 0.0);
  EXPECT_DOUBLE_EQ(w.rows.max_line_wear(), 0.0);
  EXPECT_EQ(w.rows.touched_lines(), 0u);
  EXPECT_TRUE(std::isinf(lifetime_seconds(w.rows.max_line_wear(), 1000)));
  // A claimed row's lines read zero wear and count as untouched.
  EXPECT_DOUBLE_EQ(w.rows.line_wear(w.rows.claim(4), 3), 0.0);
  EXPECT_EQ(w.rows.touched_lines(), 0u);
}

TEST(WearTracker, WriteClassesWearDifferently) {
  Wear w(8);
  w.on_write(1, 0, WriteClass::kResetOnly);
  EXPECT_DOUBLE_EQ(w.rows.max_line_wear(), kResetOnlyWearPerCell);
  w.on_write(1, 1, WriteClass::kAlpha);
  EXPECT_DOUBLE_EQ(w.rows.max_line_wear(), kAlphaWearPerCell);
  EXPECT_EQ(w.rows.touched_lines(), 2u);
  EXPECT_DOUBLE_EQ(w.rows.total_wear(),
                   kResetOnlyWearPerCell + kAlphaWearPerCell);
}

TEST(WearTracker, WearAccumulatesPerLine) {
  Wear w(8);
  for (int i = 0; i < 4; ++i) w.on_write(3, 2, WriteClass::kResetOnly);
  EXPECT_DOUBLE_EQ(w.rows.max_line_wear(), 4 * kResetOnlyWearPerCell);
  EXPECT_DOUBLE_EQ(w.rows.line_wear(w.rows.find(3), 2),
                   4 * kResetOnlyWearPerCell);
  EXPECT_EQ(w.rows.touched_lines(), 1u);
}

TEST(WearTracker, RefreshWearsEveryLineOfTheRow) {
  Wear w(4);
  w.on_refresh(7);
  EXPECT_EQ(w.rows.touched_lines(), 4u);
  EXPECT_DOUBLE_EQ(w.rows.total_wear(), 4 * kRefreshWearPerCell);
  EXPECT_DOUBLE_EQ(w.rows.max_line_wear(), kRefreshWearPerCell);
}

TEST(WearTracker, DistinctRowsDistinctLines) {
  Wear w(8);
  w.on_write(1, 0, WriteClass::kResetOnly);
  w.on_write(2, 0, WriteClass::kResetOnly);
  EXPECT_EQ(w.rows.touched_lines(), 2u);
  EXPECT_DOUBLE_EQ(w.rows.mean_line_wear(), kResetOnlyWearPerCell);
}

TEST(WearTracker, ExplicitPulseInterface) {
  Wear w(8);
  w.on_write_pulses(1, 0, 0.25);
  w.on_write_pulses(1, 0, 0.25);
  EXPECT_DOUBLE_EQ(w.rows.max_line_wear(), 0.5);
}

TEST(WearTracker, LifetimeScalesWithEnduranceAndRate) {
  Wear w(8);
  // 100 cycles of wear on the hottest line over 1 ms.
  for (int i = 0; i < 100; ++i) w.on_write(1, 0, WriteClass::kAlpha);
  const double max = w.rows.max_line_wear();
  const Tick elapsed = 1'000'000;  // 1 ms
  // rate = 100 cycles / 1e-3 s = 1e5 cycles/s; 1e8 endurance -> 1000 s.
  EXPECT_NEAR(lifetime_seconds(max, elapsed, 1e8), 1000.0, 1e-6);
  // Doubling endurance doubles lifetime.
  EXPECT_NEAR(lifetime_seconds(max, elapsed, 2e8), 2000.0, 1e-6);
  EXPECT_NEAR(lifetime_years(max, elapsed, 1e8),
              1000.0 / (365.25 * 86400.0), 1e-9);
}

TEST(WearTracker, AlphaHeavyArchitectureWearsFaster) {
  Wear wom(8), refreshed(8);
  // Plain WOM: alternating alpha/fast on a hot line.
  for (int i = 0; i < 100; ++i) {
    wom.on_write(0, 0, i % 2 == 0 ? WriteClass::kAlpha
                                  : WriteClass::kResetOnly);
  }
  // With refresh, writes stay fast but each cycle adds a row refresh.
  for (int i = 0; i < 100; ++i) {
    refreshed.on_write(0, 0, WriteClass::kResetOnly);
    if (i % 2 == 0) refreshed.on_refresh(0);
  }
  // The refresh variant trades demand-write wear for background wear; the
  // hot line ends up with comparable total cycling.
  EXPECT_NEAR(refreshed.rows.max_line_wear(), wom.rows.max_line_wear(), 26.0);
  EXPECT_GT(refreshed.rows.total_wear(), wom.rows.total_wear());
}

}  // namespace
}  // namespace wompcm
