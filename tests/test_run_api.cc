// The unified run-entry API (sim/run.h): RunRequest/TraceSpec semantics,
// equivalence with the core engine (SimService / per-cell runs), and the
// womcode.h umbrella header (this file deliberately includes only it).
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "womcode.h"

namespace wompcm {
namespace {

SimConfig small_config() {
  SimConfig cfg;
  cfg.geom.channels = 1;
  cfg.geom.ranks = 2;
  cfg.geom.banks_per_rank = 4;
  cfg.geom.rows_per_bank = 128;
  cfg.geom.cols_per_row = 128;
  return cfg;
}

void expect_identical(const SimResult& a, const SimResult& b) {
  EXPECT_EQ(a.arch_name, b.arch_name);
  EXPECT_EQ(a.end_time, b.end_time);
  EXPECT_EQ(a.injected_reads, b.injected_reads);
  EXPECT_EQ(a.injected_writes, b.injected_writes);
  EXPECT_EQ(a.stats.counters.all(), b.stats.counters.all());
  EXPECT_EQ(a.stats.demand_write_latency.sum(),
            b.stats.demand_write_latency.sum());
  EXPECT_EQ(a.stats.demand_read_latency.sum(),
            b.stats.demand_read_latency.sum());
}

TEST(TraceSpec, FactoriesDescribeTheSource) {
  const auto bench = TraceSpec::benchmark("401.bzip2", 5000);
  EXPECT_EQ(bench.kind(), TraceSpec::Kind::kBenchmark);
  EXPECT_EQ(bench.name(), "401.bzip2");
  EXPECT_EQ(bench.accesses(), 5000u);

  const auto prof = TraceSpec::profile(*find_profile("qsort"), 100);
  EXPECT_EQ(prof.kind(), TraceSpec::Kind::kProfile);
  EXPECT_EQ(prof.name(), "qsort");

  const auto file = TraceSpec::file("/tmp/some.trace");
  EXPECT_EQ(file.kind(), TraceSpec::Kind::kFile);
  EXPECT_EQ(file.accesses(), 0u);
}

TEST(TraceSpec, MixedSeedFoldsTheName) {
  const auto a = TraceSpec::benchmark("water-ns", 100);
  const auto b = TraceSpec::benchmark("water-sp", 100);
  EXPECT_NE(a.mixed_seed(7), b.mixed_seed(7));
  EXPECT_EQ(a.mixed_seed(7), a.mixed_seed(7));
  // A recorded file has nothing to mix: the seed passes through untouched
  // (and open() never consults it).
  const auto f = TraceSpec::file("x.trace");
  EXPECT_EQ(f.mixed_seed(7), 7u);
  EXPECT_EQ(f.mixed_seed(8), 8u);
}

TEST(RunApi, MatchesDirectSimulatorBitForBit) {
  // run() is trace opening + seed mixing + warmup resolution around the
  // core engine: with warmup pinned, it must reproduce a batch SimService
  // run over the identically-seeded source bit for bit.
  SimConfig cfg = small_config();
  cfg.warmup_accesses = 800;
  const auto spec = TraceSpec::profile(*find_profile("456.hmmer"), 4000);
  const auto src = spec.open(cfg.geom, /*seed=*/9);  // mixes internally
  const SimResult direct = SimService(cfg).run_to_completion(*src);
  const SimResult unified = run({cfg, spec, RunOptions::with_seed(9)});
  expect_identical(direct, unified);
}

TEST(RunApi, BenchmarkByNameMatchesProfileSpec) {
  const SimConfig cfg = small_config();
  const SimResult by_name = run({cfg, TraceSpec::benchmark("qsort", 3000),
                                 RunOptions::with_seed(5)});
  const SimResult by_profile =
      run({cfg, TraceSpec::profile(*find_profile("qsort"), 3000),
           RunOptions::with_seed(5)});
  expect_identical(by_name, by_profile);
}

TEST(RunApi, UnknownBenchmarkThrowsWithTheName) {
  try {
    run({small_config(), TraceSpec::benchmark("no-such-bench", 100),
         RunOptions::with_seed(1)});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("no-such-bench"), std::string::npos);
  }
}

TEST(RunApi, WarmupOptionOverridesConfig) {
  SimConfig cfg = small_config();
  cfg.warmup_accesses = 0;
  SimConfig warm = cfg;
  warm.warmup_accesses = 2000;
  const auto trace = TraceSpec::benchmark("qsort", 4000);
  const SimResult none = run({cfg, trace, RunOptions::with_seed(5)});
  const SimResult half = run({warm, trace, RunOptions::with_seed(5)});
  // Warmup discards latency samples but not simulated work.
  EXPECT_EQ(none.end_time, half.end_time);
  EXPECT_GT(none.stats.demand_write_latency.count(),
            half.stats.demand_write_latency.count());
}

TEST(RunApi, OversizedWarmupThrows) {
  SimConfig cfg = small_config();
  cfg.warmup_accesses = 100;
  EXPECT_THROW(run({cfg, TraceSpec::benchmark("qsort", 100),
                    RunOptions::with_seed(5)}),
               std::invalid_argument);
}

TEST(RunApi, FileSpecReplaysTheRecordedStream) {
  const SimConfig cfg = small_config();
  const auto spec = TraceSpec::benchmark("mad", 2000);
  // Record exactly the stream the synthetic spec would produce...
  const std::string path = testing::TempDir() + "run_api_replay.trace";
  {
    const auto src = spec.open(cfg.geom, /*seed=*/11);  // mixes internally
    TraceWriter writer(path, TraceWriter::Format::kBinary);
    while (const auto rec = src->next()) writer.write(*rec);
  }
  // ...and the file-backed run reproduces the synthetic run. Warmup is
  // pinned because a file spec reports no length to derive "auto" from.
  SimConfig pinned = cfg;
  pinned.warmup_accesses = 0;
  const SimResult synth =
      run({pinned, spec, RunOptions::with_seed(11)});
  const SimResult replay = run({pinned, TraceSpec::file(path)});
  expect_identical(synth, replay);
  std::remove(path.c_str());
}

TEST(RunApi, MissingTraceFileThrows) {
  EXPECT_THROW(
      run({small_config(), TraceSpec::file("/nonexistent/nope.trace")}),
      std::runtime_error);
}

TEST(RunSweep, MatchesPerCellRuns) {
  // A sweep is nothing but independent cells: each (arch, benchmark) cell
  // must equal a standalone run() of that configuration.
  const SimConfig base = small_config();
  const std::vector<ArchConfig> archs = paper_architectures();
  const std::vector<WorkloadProfile> profiles = {*find_profile("qsort"),
                                                 *find_profile("mad")};
  RunOptions opts = RunOptions::with_seed(4);
  opts.jobs = ParallelPolicy::serial();
  const auto rows = run_sweep(
      {base, TraceSpec::profile(WorkloadProfile{}, 3000), opts}, archs,
      profiles);
  ASSERT_EQ(rows.size(), profiles.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].benchmark, profiles[i].name);
    ASSERT_EQ(rows[i].results.size(), archs.size());
    for (std::size_t j = 0; j < archs.size(); ++j) {
      SimConfig cfg = base;
      cfg.arch = archs[j];
      const SimResult cell =
          run({cfg, TraceSpec::profile(profiles[i], 3000),
               RunOptions::with_seed(4)});
      expect_identical(rows[i].results[j], cell);
    }
  }
}

TEST(RunSweep, ParallelAgreesWithSerial) {
  const SimConfig base = small_config();
  const std::vector<ArchConfig> archs = {ArchConfig{},
                                         paper_architectures()[1]};
  const std::vector<WorkloadProfile> profiles = {*find_profile("qsort"),
                                                 *find_profile("FFT.mi")};
  RunOptions serial = RunOptions::with_seed(6);
  serial.jobs = ParallelPolicy::serial();
  RunOptions parallel = RunOptions::with_seed(6);
  parallel.jobs = ParallelPolicy::with_jobs(4);
  const auto trace = TraceSpec::profile(WorkloadProfile{}, 2500);
  const auto a = run_sweep({base, trace, serial}, archs, profiles);
  const auto b = run_sweep({base, trace, parallel}, archs, profiles);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    for (std::size_t j = 0; j < a[i].results.size(); ++j) {
      expect_identical(a[i].results[j], b[i].results[j]);
    }
  }
}

TEST(RunSweep, RejectsFileTraces) {
  EXPECT_THROW(run_sweep({small_config(), TraceSpec::file("x.trace"),
                          RunOptions::with_seed(1)},
                         paper_architectures(), {*find_profile("qsort")}),
               std::invalid_argument);
}

TEST(RunSweep, FaultySweepIsReproducible) {
  SimConfig base = small_config();
  base.fault.enabled = true;
  base.fault.seed = 7;
  base.fault.endurance = 50.0;
  base.fault.initial_wear = 0.8;
  base.fault.spare_rows = 4;
  const std::vector<ArchConfig> archs = paper_architectures();
  const std::vector<WorkloadProfile> profiles = {*find_profile("qsort")};
  RunOptions serial = RunOptions::with_seed(2);
  serial.jobs = ParallelPolicy::serial();
  RunOptions parallel = RunOptions::with_seed(2);
  parallel.jobs = ParallelPolicy::with_jobs(4);
  const auto trace = TraceSpec::profile(WorkloadProfile{}, 3000);
  const auto a = run_sweep({base, trace, serial}, archs, profiles);
  const auto b = run_sweep({base, trace, parallel}, archs, profiles);
  bool any_fault = false;
  for (std::size_t j = 0; j < a[0].results.size(); ++j) {
    expect_identical(a[0].results[j], b[0].results[j]);
    EXPECT_EQ(a[0].results[j].fault_injected, b[0].results[j].fault_injected);
    any_fault |= a[0].results[j].fault_injected > 0;
  }
  EXPECT_TRUE(any_fault);
}

}  // namespace
}  // namespace wompcm
