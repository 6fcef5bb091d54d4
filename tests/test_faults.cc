// Fault-injection & graceful-degradation tests: the remap table, the
// seeded cell-failure model, the controller's degradation behaviour on
// every architecture, and the determinism contract (same fault seed, same
// outcome — under either scheduler scan mode).
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "controller/remap_table.h"
#include "pcm/fault_model.h"
#include "sim/config_io.h"
#include "sim/run.h"

namespace wompcm {
namespace {

// -------------------------------------------------------------------------
// SpareRowRemapper

TEST(SpareRowRemapper, IdentityUntilRetired) {
  SpareRowRemapper remap(/*banks=*/4, /*spare_rows=*/2, /*first_spare_row=*/64);
  EXPECT_EQ(remap.resolve(0, 17), 17u);
  EXPECT_EQ(remap.resolve(3, 0), 0u);
  EXPECT_EQ(remap.remapped_rows(), 0u);
}

TEST(SpareRowRemapper, RetireTranslatesAndCounts) {
  SpareRowRemapper remap(4, 2, 64);
  const auto spare = remap.retire(1, 17);
  ASSERT_TRUE(spare.has_value());
  EXPECT_EQ(*spare, 64u);  // first spare of bank 1
  EXPECT_EQ(remap.resolve(1, 17), 64u);
  // Other banks and rows are untouched.
  EXPECT_EQ(remap.resolve(0, 17), 17u);
  EXPECT_EQ(remap.resolve(1, 18), 18u);
  EXPECT_EQ(remap.remapped_rows(), 1u);
  EXPECT_EQ(remap.spares_used(1), 1u);
  EXPECT_EQ(remap.spares_used(0), 0u);
}

TEST(SpareRowRemapper, ChainsWhenSpareDiesToo) {
  SpareRowRemapper remap(2, 3, 100);
  ASSERT_EQ(remap.retire(0, 5), std::optional<unsigned>(100u));
  // The spare itself wears out: retiring it extends the chain, and the
  // original row now resolves through both hops.
  ASSERT_EQ(remap.retire(0, 100), std::optional<unsigned>(101u));
  EXPECT_EQ(remap.resolve(0, 5), 101u);
  EXPECT_EQ(remap.resolve(0, 100), 101u);
  EXPECT_EQ(remap.remapped_rows(), 2u);
}

TEST(SpareRowRemapper, ExhaustionReturnsNullopt) {
  SpareRowRemapper remap(2, 1, 10);
  ASSERT_TRUE(remap.retire(0, 3).has_value());
  EXPECT_FALSE(remap.retire(0, 4).has_value());
  EXPECT_EQ(remap.exhausted(), 1u);
  // The failed retire leaves the row unmapped.
  EXPECT_EQ(remap.resolve(0, 4), 4u);
  // Bank 1 still has its own spare.
  EXPECT_TRUE(remap.retire(1, 3).has_value());
}

// -------------------------------------------------------------------------
// FaultModel

TEST(FaultModel, EnduranceIsPureFunctionOfIdentity) {
  FaultConfig cfg;
  cfg.seed = 99;
  cfg.endurance = 1000.0;
  cfg.sigma = 0.4;
  FaultModel a(cfg, /*lines_per_row=*/8);
  FaultModel b(cfg, 8);
  for (RowKey row : {0ull, 7ull, 123456ull}) {
    for (unsigned line = 0; line < 8; ++line) {
      EXPECT_DOUBLE_EQ(a.line_endurance(row, line),
                       b.line_endurance(row, line));
    }
  }
  // A different seed is a different universe.
  cfg.seed = 100;
  FaultModel c(cfg, 8);
  EXPECT_NE(a.line_endurance(3, 0), c.line_endurance(3, 0));
}

TEST(FaultModel, SigmaZeroMeansEveryLineAtTheMedian) {
  FaultConfig cfg;
  cfg.endurance = 500.0;
  cfg.sigma = 0.0;
  const FaultModel m(cfg, 4);
  EXPECT_DOUBLE_EQ(m.line_endurance(0, 0), 500.0);
  EXPECT_DOUBLE_EQ(m.line_endurance(999, 3), 500.0);
}

TEST(FaultModel, LognormalSpreadCentersOnTheMedian) {
  FaultConfig cfg;
  cfg.endurance = 1000.0;
  cfg.sigma = 0.3;
  const FaultModel m(cfg, 8);
  unsigned below = 0, above = 0;
  for (RowKey row = 0; row < 500; ++row) {
    for (unsigned line = 0; line < 8; ++line) {
      const double e = m.line_endurance(row, line);
      EXPECT_GT(e, 0.0);
      (e < 1000.0 ? below : above) += 1;
    }
  }
  // Median property: roughly half the draws land on each side.
  const double frac = static_cast<double>(below) / (below + above);
  EXPECT_NEAR(frac, 0.5, 0.05);
}

TEST(FaultModel, StatesAdvanceAndStick) {
  FaultConfig cfg;
  cfg.endurance = 100.0;
  cfg.sigma = 0.0;
  FaultModel m(cfg, 4);
  using LS = FaultModel::LineState;
  // Below budget: healthy.
  auto obs = m.observe_write(5, 0, 50.0, /*pre_aged=*/false);
  EXPECT_EQ(obs.state, LS::kHealthy);
  EXPECT_FALSE(obs.transitioned);
  // Past budget: degraded, and the transition is flagged exactly once.
  obs = m.observe_write(5, 0, 120.0, false);
  EXPECT_EQ(obs.state, LS::kDegraded);
  EXPECT_TRUE(obs.transitioned);
  obs = m.observe_write(5, 0, 130.0, false);
  EXPECT_EQ(obs.state, LS::kDegraded);
  EXPECT_FALSE(obs.transitioned);
  // Past 1.5x budget: dead, sticky even if asked about lower wear.
  obs = m.observe_write(5, 0, 160.0, false);
  EXPECT_EQ(obs.state, LS::kDead);
  EXPECT_TRUE(obs.transitioned);
  obs = m.observe_write(5, 0, 0.0, false);
  EXPECT_EQ(obs.state, LS::kDead);
  EXPECT_FALSE(obs.transitioned);
}

TEST(FaultModel, PreAgingOnlyAffectsOriginalRows) {
  FaultConfig cfg;
  cfg.endurance = 100.0;
  cfg.sigma = 0.0;
  cfg.initial_wear = 1.2;
  FaultModel m(cfg, 4);
  using LS = FaultModel::LineState;
  // A pre-aged row starts past its budget; a fresh spare does not.
  EXPECT_EQ(m.observe_write(1, 0, 0.0, /*pre_aged=*/true).state,
            LS::kDegraded);
  EXPECT_EQ(m.observe_write(2, 0, 0.0, /*pre_aged=*/false).state,
            LS::kHealthy);
}

TEST(FaultModel, RetryDrawStaysInBounds) {
  FaultConfig cfg;
  cfg.max_retries = 3;
  FaultModel m(cfg, 1);
  std::set<unsigned> seen;
  for (int i = 0; i < 200; ++i) {
    const unsigned r = m.retry_draw();
    EXPECT_GE(r, 1u);
    EXPECT_LE(r, 3u);
    seen.insert(r);
  }
  EXPECT_EQ(seen.size(), 3u);  // all values reachable
}

TEST(FaultModel, ReadDisturbRespectsProbability) {
  FaultConfig off;
  off.read_disturb = 0.0;
  FaultModel moff(off, 1);
  for (int i = 0; i < 50; ++i) EXPECT_FALSE(moff.read_disturbed());

  FaultConfig always;
  always.read_disturb = 1.0;
  FaultModel mon(always, 1);
  for (int i = 0; i < 50; ++i) EXPECT_TRUE(mon.read_disturbed());
}

// -------------------------------------------------------------------------
// End-to-end degradation scenarios

// Small platform where a hot write stream burns through a deliberately
// tiny endurance budget within a few thousand accesses.
SimConfig worn_config(const char* preset) {
  SimConfig cfg;
  cfg.geom.channels = 1;
  cfg.geom.ranks = 2;
  cfg.geom.banks_per_rank = 2;
  cfg.geom.rows_per_bank = 64;
  cfg.geom.cols_per_row = 64;
  cfg.arch.composition = arch_preset(preset);
  cfg.warmup_accesses = 0;
  cfg.fault.enabled = true;
  cfg.fault.seed = 7;
  cfg.fault.endurance = 10.0;
  cfg.fault.sigma = 0.25;
  cfg.fault.initial_wear = 0.9;
  cfg.fault.spare_rows = 8;
  return cfg;
}

WorkloadProfile hot_profile() {
  WorkloadProfile hot;
  hot.name = "hot-row";
  hot.suite = "demo";
  hot.write_fraction = 0.8;
  hot.footprint_pages = 8;
  hot.write_zipf = 1.4;
  hot.rewrite_frac = 0.9;
  return hot;
}

SimResult run_worn(const char* preset, std::uint64_t accesses = 6000,
                   std::uint64_t seed = 42) {
  return run({worn_config(preset), TraceSpec::profile(hot_profile(), accesses),
              RunOptions::with_seed(seed)});
}

TEST(FaultInjection, DisabledIsBitIdenticalToNoModel) {
  SimConfig faulty = worn_config("wom");
  faulty.fault.enabled = false;
  SimConfig vanilla = faulty;
  vanilla.fault = FaultConfig{};
  const auto trace = TraceSpec::profile(hot_profile(), 4000);
  const SimResult a = run({faulty, trace, RunOptions::with_seed(1)});
  const SimResult b = run({vanilla, trace, RunOptions::with_seed(1)});
  EXPECT_EQ(a.end_time, b.end_time);
  EXPECT_EQ(a.stats.counters.all(), b.stats.counters.all());
  // No fault metric may even exist in the registry when faults are off.
  EXPECT_EQ(a.fault_injected, 0u);
  for (const auto& [name, scalar] : a.metrics.all()) {
    EXPECT_EQ(name.find("fault."), std::string::npos) << name;
  }
}

TEST(FaultInjection, WomDemotionAndRemapHappen) {
  const SimResult r = run_worn("wom");
  EXPECT_GT(r.fault_injected, 0u);
  EXPECT_GT(r.fault_retries, 0u);
  EXPECT_GT(r.fault_demoted_writes, 0u);
  EXPECT_GT(r.fault_remapped_rows, 0u);
  EXPECT_GT(r.fault_dead_rows, 0u);
  // The per-channel breakdown carries the same totals on this 1-channel
  // platform.
  EXPECT_EQ(r.metrics.counter("ch0.fault.injected"), r.fault_injected);
  EXPECT_EQ(r.metrics.counter("ch0.fault.demoted_writes"),
            r.fault_demoted_writes);
  EXPECT_EQ(r.metrics.counter("ch0.fault.remapped_rows"),
            r.fault_remapped_rows);
}

TEST(FaultInjection, BaselineRetriesButNeverDemotes) {
  const SimResult r = run_worn("pcm");
  EXPECT_GT(r.fault_injected, 0u);
  EXPECT_GT(r.fault_retries, 0u);
  // No WOM fast path to demote from.
  EXPECT_EQ(r.fault_demoted_writes, 0u);
  EXPECT_GT(r.fault_remapped_rows, 0u);
}

TEST(FaultInjection, RefreshWomDegradesGracefully) {
  const SimResult r = run_worn("refresh");
  EXPECT_GT(r.fault_demoted_writes, 0u);
  EXPECT_GT(r.fault_remapped_rows, 0u);
}

TEST(FaultInjection, WcpcmRetiresDeadCacheRowsAndBypasses) {
  const SimResult r = run_worn("wcpcm", 12000);
  EXPECT_GT(r.fault_injected, 0u);
  // Dead WOM-cache rows are invalidated and their writes forwarded to main
  // memory instead of being remapped (the cache has no spares).
  EXPECT_GT(r.stats.counters.get("wcpcm.dead_rows"), 0u);
  EXPECT_GT(r.stats.counters.get("wcpcm.bypass_writes"), 0u);
  EXPECT_GE(r.stats.counters.get("wcpcm.bypass_writes"),
            r.stats.counters.get("wcpcm.dead_rows"));
}

TEST(FaultInjection, DegradationCostsLatency) {
  SimConfig cfg = worn_config("wom");
  cfg.fault.enabled = false;
  const auto trace = TraceSpec::profile(hot_profile(), 6000);
  const SimResult clean = run({cfg, trace, RunOptions::with_seed(42)});
  const SimResult worn = run_worn("wom");
  EXPECT_GT(worn.avg_write_ns(), clean.avg_write_ns());
}

TEST(FaultInjection, ReadDisturbShowsUpWhenConfigured) {
  SimConfig cfg = worn_config("pcm");
  cfg.fault.read_disturb = 0.25;
  WorkloadProfile reads = hot_profile();
  reads.write_fraction = 0.2;
  const SimResult r =
      run({cfg, TraceSpec::profile(reads, 6000), RunOptions::with_seed(42)});
  EXPECT_GT(r.fault_read_disturbs, 0u);
  EXPECT_GE(r.fault_injected, r.fault_read_disturbs);
}

TEST(FaultInjection, BadFaultConfigThrows) {
  SimConfig cfg = worn_config("pcm");
  cfg.fault.endurance = 0.0;
  EXPECT_THROW(run({cfg, TraceSpec::profile(hot_profile(), 100),
                    RunOptions::with_seed(1)}),
               std::invalid_argument);
}

// -------------------------------------------------------------------------
// Determinism contract

void expect_same_outcome(const SimResult& a, const SimResult& b) {
  EXPECT_EQ(a.end_time, b.end_time);
  EXPECT_EQ(a.fault_injected, b.fault_injected);
  EXPECT_EQ(a.fault_retries, b.fault_retries);
  EXPECT_EQ(a.fault_demoted_writes, b.fault_demoted_writes);
  EXPECT_EQ(a.fault_remapped_rows, b.fault_remapped_rows);
  EXPECT_EQ(a.fault_dead_rows, b.fault_dead_rows);
  EXPECT_EQ(a.fault_read_disturbs, b.fault_read_disturbs);
  EXPECT_EQ(a.stats.counters.all(), b.stats.counters.all());
  EXPECT_EQ(a.stats.demand_write_latency.sum(),
            b.stats.demand_write_latency.sum());
  EXPECT_EQ(a.stats.demand_read_latency.sum(),
            b.stats.demand_read_latency.sum());
}

TEST(FaultDeterminism, SameSeedSameFaults) {
  for (const char* preset : {"wom", "refresh", "wcpcm"}) {
    const SimResult a = run_worn(preset);
    const SimResult b = run_worn(preset);
    expect_same_outcome(a, b);
  }
}

TEST(FaultDeterminism, ScanModesAgreeUnderFaults) {
  SimConfig indexed = worn_config("refresh");
  indexed.sched.scan_mode = ScanMode::kIndexed;
  SimConfig reference = indexed;
  reference.sched.scan_mode = ScanMode::kReference;
  const auto trace = TraceSpec::profile(hot_profile(), 6000);
  const SimResult a = run({indexed, trace, RunOptions::with_seed(42)});
  const SimResult b = run({reference, trace, RunOptions::with_seed(42)});
  expect_same_outcome(a, b);
  EXPECT_GT(a.fault_injected, 0u);  // the agreement is not vacuous
}

TEST(FaultDeterminism, FaultSeedChangesTheUniverse) {
  SimConfig cfg = worn_config("wom");
  const auto trace = TraceSpec::profile(hot_profile(), 6000);
  const SimResult a = run({cfg, trace, RunOptions::with_seed(42)});
  cfg.fault.seed = 8;
  const SimResult c = run({cfg, trace, RunOptions::with_seed(42)});
  // Same trace, different fault universe: outcomes differ.
  EXPECT_NE(a.fault_injected, c.fault_injected);
}

// -------------------------------------------------------------------------
// The shipped scenario config

TEST(FaultyConfig, LoadsAndRoundTrips) {
  const SimConfig cfg =
      load_config_file(SimConfig{}, WOMPCM_REPO_DIR "/configs/faulty.cfg");
  EXPECT_TRUE(cfg.fault.enabled);
  EXPECT_EQ(cfg.fault.seed, 7u);
  EXPECT_DOUBLE_EQ(cfg.fault.endurance, 400.0);
  EXPECT_DOUBLE_EQ(cfg.fault.sigma, 0.35);
  EXPECT_DOUBLE_EQ(cfg.fault.initial_wear, 0.75);
  EXPECT_EQ(cfg.fault.max_retries, 3u);
  EXPECT_EQ(cfg.fault.spare_rows, 16u);
  EXPECT_DOUBLE_EQ(cfg.fault.read_disturb, 0.0005);
}

TEST(FaultyConfig, ScenarioDegradesButCompletes) {
  SimConfig cfg =
      load_config_file(SimConfig{}, WOMPCM_REPO_DIR "/configs/faulty.cfg");
  // Shrink the platform so the hot set cycles fast enough to die.
  cfg.geom.ranks = 2;
  cfg.geom.banks_per_rank = 2;
  cfg.geom.rows_per_bank = 256;
  cfg.warmup_accesses = 0;
  const SimResult r = run({cfg, TraceSpec::profile(hot_profile(), 8000),
                           RunOptions::with_seed(42)});
  EXPECT_GT(r.fault_injected, 0u);
  EXPECT_GT(r.fault_demoted_writes, 0u);
  EXPECT_GT(r.avg_write_ns(), 0.0);
}

}  // namespace
}  // namespace wompcm
