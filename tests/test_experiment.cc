// Tests of the experiment harness helpers.
#include <gtest/gtest.h>

#include "sim/experiment.h"

namespace wompcm {
namespace {

TEST(Experiment, PaperConfigMatchesPaperParameters) {
  const SimConfig cfg = paper_config();
  EXPECT_EQ(cfg.geom.ranks, 16u);
  EXPECT_EQ(cfg.geom.banks_per_rank, 32u);
  EXPECT_EQ(cfg.geom.rows_per_bank, 32768u);
  EXPECT_EQ(cfg.geom.cols_per_row, 2048u);
  EXPECT_EQ(cfg.geom.devices_per_rank, 16u);
  EXPECT_EQ(cfg.timing.row_read_ns, 27u);
  EXPECT_EQ(cfg.timing.row_write_ns, 150u);
  EXPECT_EQ(cfg.timing.reset_ns, 40u);
  EXPECT_EQ(cfg.timing.refresh_period_ns, 4000u);
  EXPECT_EQ(cfg.arch.code, "rs23-inv");
  EXPECT_FALSE(cfg.warmup_accesses.has_value());  // auto
}

TEST(Experiment, PaperArchitecturesInPresentationOrder) {
  const auto archs = paper_architectures();
  ASSERT_EQ(archs.size(), 4u);
  EXPECT_EQ(archs[0].composition, arch_preset("pcm"));
  EXPECT_EQ(archs[1].composition, arch_preset("wom"));
  EXPECT_EQ(archs[2].composition, arch_preset("refresh"));
  EXPECT_EQ(archs[3].composition, arch_preset("wcpcm"));
}

TEST(Experiment, RunBenchmarkIsDeterministic) {
  const auto p = *find_profile("456.hmmer");
  const SimConfig cfg = paper_config();
  const SimResult a =
      run({cfg, TraceSpec::profile(p, 5000), RunOptions::with_seed(7)});
  const SimResult b =
      run({cfg, TraceSpec::profile(p, 5000), RunOptions::with_seed(7)});
  EXPECT_DOUBLE_EQ(a.avg_write_ns(), b.avg_write_ns());
  EXPECT_DOUBLE_EQ(a.avg_read_ns(), b.avg_read_ns());
  const SimResult c =
      run({cfg, TraceSpec::profile(p, 5000), RunOptions::with_seed(8)});
  EXPECT_NE(a.avg_write_ns(), c.avg_write_ns());
}

TEST(Experiment, SeedsDifferAcrossBenchmarks) {
  // The benchmark name is folded into the seed, so two profiles with the
  // same parameters still draw different streams.
  const SimConfig cfg = paper_config();
  const SimResult a = run({cfg, TraceSpec::profile(*find_profile("water-ns"), 4000),
                           RunOptions::with_seed(7)});
  const SimResult b = run({cfg, TraceSpec::profile(*find_profile("water-sp"), 4000),
                           RunOptions::with_seed(7)});
  EXPECT_NE(a.avg_write_ns(), b.avg_write_ns());
}

TEST(Experiment, SweepShape) {
  const auto archs = paper_architectures();
  const std::vector<WorkloadProfile> profiles = {
      *find_profile("456.hmmer"), *find_profile("qsort")};
  RunRequest req;
  req.config = paper_config();
  req.trace = TraceSpec::profile(WorkloadProfile{}, 4000);
  req.options.seed = 3;
  const auto rows = run_sweep(req, archs, profiles);
  ASSERT_EQ(rows.size(), 2u);
  for (const SweepRow& row : rows) {
    EXPECT_EQ(row.results.size(), 4u);
    for (const SimResult& r : row.results) {
      EXPECT_GT(r.avg_write_ns(), 0.0);
      EXPECT_GT(r.avg_read_ns(), 0.0);
    }
  }
}

TEST(Experiment, NormalizeAgainstBaselineColumn) {
  SweepRow row;
  row.benchmark = "x";
  for (const double w : {200.0, 100.0, 50.0}) {
    SimResult r;
    for (int i = 0; i < 10; ++i) {
      r.stats.demand_write_latency.add(static_cast<Tick>(w));
    }
    row.results.push_back(r);
  }
  const auto norm = normalize(
      {row}, [](const SimResult& r) { return r.avg_write_ns(); });
  ASSERT_EQ(norm.size(), 1u);
  EXPECT_DOUBLE_EQ(norm[0][0], 1.0);
  EXPECT_DOUBLE_EQ(norm[0][1], 0.5);
  EXPECT_DOUBLE_EQ(norm[0][2], 0.25);
}

TEST(Experiment, ColumnMean) {
  const std::vector<std::vector<double>> m = {{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_DOUBLE_EQ(column_mean(m, 0), 2.0);
  EXPECT_DOUBLE_EQ(column_mean(m, 1), 3.0);
  EXPECT_DOUBLE_EQ(column_mean({}, 0), 0.0);
}

}  // namespace
}  // namespace wompcm
