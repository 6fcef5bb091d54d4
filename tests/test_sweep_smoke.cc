// Smoke sweep: every benchmark profile runs against every architecture on a
// short trace, and basic invariants hold. This is the broad-coverage net
// under the detailed per-module tests.
#include <gtest/gtest.h>

#include "sim/experiment.h"

namespace wompcm {
namespace {

// The four Fig. 5 designs: the arch= preset, and the label test names use.
struct PaperArch {
  const char* preset;
  const char* label;
};

constexpr PaperArch kArchs[] = {{"pcm", "pcm"},
                                {"wom", "wom-pcm"},
                                {"refresh", "pcm-refresh"},
                                {"wcpcm", "wcpcm"}};

// Case has no gtest printer, so each ctest name dumps its bytes. The arch
// index leads so that the dump starts with a fixed value; the string's data
// pointer (a heap address) comes after it.
struct Case {
  std::size_t arch;  // index into kArchs
  std::string benchmark;
};

std::vector<Case> all_cases() {
  std::vector<Case> cases;
  for (const WorkloadProfile& p : benchmark_profiles()) {
    for (std::size_t a = 0; a < std::size(kArchs); ++a) {
      cases.push_back({a, p.name});
    }
  }
  return cases;
}

class SweepSmoke : public ::testing::TestWithParam<Case> {};

TEST_P(SweepSmoke, RunsAndSatisfiesInvariants) {
  const Case& c = GetParam();
  const std::string preset = kArchs[c.arch].preset;
  SimConfig cfg = paper_config();
  cfg.arch.composition = arch_preset(preset);
  const auto profile = find_profile(c.benchmark);
  ASSERT_TRUE(profile.has_value());
  const SimResult r = run(
      {cfg, TraceSpec::profile(*profile, 3000), RunOptions::with_seed(123)});

  // Everything injected, everything finished, time moved forward.
  EXPECT_EQ(r.injected_reads + r.injected_writes, 3000u);
  EXPECT_GT(r.end_time, 0u);

  // Latencies are bounded below by physical service times.
  const PcmTiming t;
  if (r.stats.demand_read_latency.count() > 0) {
    EXPECT_GE(r.stats.demand_read_latency.min(),
              t.col_read_ns + t.burst_ns());
  }
  if (r.stats.demand_write_latency.count() > 0) {
    EXPECT_GE(r.stats.demand_write_latency.min(),
              t.burst_ns() + t.reset_ns);
  }

  // Histograms agree with the streaming stats.
  EXPECT_EQ(r.stats.read_latency_hist.total(),
            r.stats.demand_read_latency.count());
  EXPECT_EQ(r.stats.write_latency_hist.total(),
            r.stats.demand_write_latency.count());

  // Architecture-specific invariants.
  const auto& cnt = r.stats.counters;
  if (preset == "pcm") {
    EXPECT_EQ(cnt.get("writes.fast"), 0u);
    EXPECT_EQ(r.refresh_commands, 0u);
    EXPECT_DOUBLE_EQ(r.capacity_overhead, 0.0);
  } else if (preset == "wom") {
    EXPECT_EQ(r.refresh_commands, 0u);
    EXPECT_GT(cnt.get("writes.alpha") + cnt.get("writes.fast"), 0u);
    EXPECT_DOUBLE_EQ(r.capacity_overhead, 0.5);
  } else if (preset == "refresh") {
    EXPECT_GT(cnt.get("writes.alpha") + cnt.get("writes.fast"), 0u);
  } else if (preset == "wcpcm") {
    const auto hits = cnt.get("wcpcm.write_hits");
    const auto misses = cnt.get("wcpcm.write_misses");
    EXPECT_GT(hits + misses, 0u);
    EXPECT_EQ(misses, cnt.get("wcpcm.victims"));
    EXPECT_NEAR(r.capacity_overhead, 0.047, 0.001);
  }

  // Wear and energy moved if anything was written.
  if (r.injected_writes > 0) {
    EXPECT_GT(r.energy_write_pj, 0.0);
    EXPECT_GT(r.max_line_wear, 0.0);
  }
}

std::string case_name(const ::testing::TestParamInfo<Case>& info) {
  std::string s = info.param.benchmark + "_" + kArchs[info.param.arch].label;
  for (char& ch : s) {
    if (!isalnum(static_cast<unsigned char>(ch))) ch = '_';
  }
  return s;
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarksAllArchs, SweepSmoke,
                         ::testing::ValuesIn(all_cases()), case_name);

}  // namespace
}  // namespace wompcm
