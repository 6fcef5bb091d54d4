// Determinism contract of the parallel sweep engine: for the paper
// configuration, the parallel and serial run_sweep produce identical
// SimResult stats in identical order, regardless of worker count.
#include <gtest/gtest.h>

#include <vector>

#include "sim/experiment.h"
#include "sim/run.h"

namespace wompcm {
namespace {

void expect_same_result(const SimResult& a, const SimResult& b) {
  EXPECT_EQ(a.arch_name, b.arch_name);
  EXPECT_EQ(a.end_time, b.end_time);
  EXPECT_EQ(a.injected_reads, b.injected_reads);
  EXPECT_EQ(a.injected_writes, b.injected_writes);
  EXPECT_EQ(a.deferred_injections, b.deferred_injections);
  EXPECT_EQ(a.refresh_commands, b.refresh_commands);
  EXPECT_EQ(a.refresh_rows, b.refresh_rows);

  EXPECT_EQ(a.stats.demand_read_latency.count(),
            b.stats.demand_read_latency.count());
  EXPECT_DOUBLE_EQ(a.stats.demand_read_latency.sum(),
                   b.stats.demand_read_latency.sum());
  EXPECT_EQ(a.stats.demand_read_latency.min(),
            b.stats.demand_read_latency.min());
  EXPECT_EQ(a.stats.demand_read_latency.max(),
            b.stats.demand_read_latency.max());
  EXPECT_EQ(a.stats.demand_write_latency.count(),
            b.stats.demand_write_latency.count());
  EXPECT_DOUBLE_EQ(a.stats.demand_write_latency.sum(),
                   b.stats.demand_write_latency.sum());
  EXPECT_EQ(a.stats.demand_write_latency.min(),
            b.stats.demand_write_latency.min());
  EXPECT_EQ(a.stats.demand_write_latency.max(),
            b.stats.demand_write_latency.max());

  EXPECT_EQ(a.stats.counters.all(), b.stats.counters.all());
  EXPECT_DOUBLE_EQ(a.energy_read_pj, b.energy_read_pj);
  EXPECT_DOUBLE_EQ(a.energy_write_pj, b.energy_write_pj);
  EXPECT_DOUBLE_EQ(a.energy_refresh_pj, b.energy_refresh_pj);
  EXPECT_DOUBLE_EQ(a.max_line_wear, b.max_line_wear);
  EXPECT_DOUBLE_EQ(a.mean_line_wear, b.mean_line_wear);
  EXPECT_DOUBLE_EQ(a.lifetime_years, b.lifetime_years);

  ASSERT_EQ(a.banks.size(), b.banks.size());
  for (std::size_t i = 0; i < a.banks.size(); ++i) {
    EXPECT_EQ(a.banks[i].busy_time, b.banks[i].busy_time);
    EXPECT_EQ(a.banks[i].ops, b.banks[i].ops);
    EXPECT_EQ(a.banks[i].row_hits, b.banks[i].row_hits);
    EXPECT_EQ(a.banks[i].pauses, b.banks[i].pauses);
  }
}

std::vector<WorkloadProfile> test_profiles() {
  // One profile per suite, covering the behavioural spread.
  return {*find_profile("401.bzip2"), *find_profile("464.h264ref"),
          *find_profile("qsort"), *find_profile("ocean")};
}

TEST(ParallelSweep, ParallelMatchesSerialBitForBit) {
  const auto archs = paper_architectures();
  const auto profiles = test_profiles();
  RunRequest req;
  req.config = paper_config();
  req.trace = TraceSpec::profile(WorkloadProfile{}, 2500);
  req.options.seed = 42;
  req.options.jobs = ParallelPolicy::serial();
  const auto serial = run_sweep(req, archs, profiles);
  req.options.jobs = ParallelPolicy::with_jobs(4);
  const auto parallel = run_sweep(req, archs, profiles);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE(serial[i].benchmark);
    EXPECT_EQ(serial[i].benchmark, parallel[i].benchmark);
    ASSERT_EQ(serial[i].results.size(), parallel[i].results.size());
    for (std::size_t j = 0; j < serial[i].results.size(); ++j) {
      SCOPED_TRACE(serial[i].results[j].arch_name);
      expect_same_result(serial[i].results[j], parallel[i].results[j]);
    }
  }
}

TEST(ParallelSweep, DefaultPolicyIsAutomatic) {
  const ParallelPolicy p;
  EXPECT_EQ(p.jobs, 0u);
  EXPECT_GE(p.resolved_jobs(), 1u);
  EXPECT_EQ(ParallelPolicy::serial().resolved_jobs(), 1u);
  EXPECT_EQ(ParallelPolicy::with_jobs(3).resolved_jobs(), 3u);
}

TEST(ParallelSweep, RunnerPreservesRowAndColumnOrder) {
  const auto archs = paper_architectures();
  const auto profiles = test_profiles();
  RunRequest req;
  req.config = paper_config();
  req.trace = TraceSpec::profile(WorkloadProfile{}, 1500);
  req.options.seed = 7;
  req.options.jobs = ParallelPolicy::with_jobs(3);
  const auto rows = run_sweep(req, archs, profiles);
  ASSERT_EQ(rows.size(), profiles.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].benchmark, profiles[i].name);
    ASSERT_EQ(rows[i].results.size(), archs.size());
  }
  // Column order is the arch list order: baseline first, WCPCM last.
  EXPECT_EQ(rows[0].results[0].arch_name, "pcm");
  EXPECT_NE(rows[0].results[3].arch_name.find("wcpcm"), std::string::npos);
}

TEST(ParallelSweep, RejectsWarmupAtLeastTraceLength) {
  SimConfig cfg = paper_config();
  cfg.warmup_accesses = 1000;
  EXPECT_THROW(run({cfg, TraceSpec::profile(*find_profile("qsort"), 1000),
                    RunOptions::with_seed(1)}),
               std::invalid_argument);
  EXPECT_NO_THROW(run({cfg, TraceSpec::profile(*find_profile("qsort"), 1001),
                       RunOptions::with_seed(1)}));
}

}  // namespace
}  // namespace wompcm
