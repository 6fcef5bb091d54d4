// Serial-vs-sharded cross-check for single-run channel sharding.
//
// run() with RunOptions::jobs > 1 on a multi-channel config executes each
// channel's controller on its own worker behind a deterministic time
// barrier (sim/sharded.h). The contract is bit-identity: every
// deterministic field of the SimResult — counters, latency sums,
// histograms, the full metrics registry, per-bank utilization, energy and
// wear gauges, fault tallies — must match the serial run exactly, under
// every scan mode, composition, and fault seed. This suite sweeps
// serial vs jobs in {2, 4} over both scan modes, faults on and off, and
// compositions covering refresh, dynamic cache routing (WCPCM), and the
// per-channel Flip-N-Write RNG streams.
#include <gtest/gtest.h>

#include <string>

#include "sim/experiment.h"
#include "sim/run.h"

namespace wompcm {
namespace {

// Every deterministic field of two results must be identical (the same
// predicate as the indexed-vs-reference hot-path suite; wall-clock phase
// counters are excluded by design).
void expect_identical(const SimResult& a, const SimResult& b) {
  EXPECT_EQ(a.arch_name, b.arch_name);
  EXPECT_EQ(a.end_time, b.end_time);
  EXPECT_EQ(a.injected_reads, b.injected_reads);
  EXPECT_EQ(a.injected_writes, b.injected_writes);
  EXPECT_EQ(a.deferred_injections, b.deferred_injections);
  EXPECT_EQ(a.refresh_commands, b.refresh_commands);
  EXPECT_EQ(a.refresh_rows, b.refresh_rows);

  auto expect_latency_eq = [](const LatencyStats& x, const LatencyStats& y,
                              const char* what) {
    EXPECT_EQ(x.count(), y.count()) << what;
    EXPECT_EQ(x.min(), y.min()) << what;
    EXPECT_EQ(x.max(), y.max()) << what;
    EXPECT_EQ(x.sum(), y.sum()) << what;  // bit-exact: integer-tick sums
  };
  expect_latency_eq(a.stats.demand_read_latency, b.stats.demand_read_latency,
                    "demand read latency");
  expect_latency_eq(a.stats.demand_write_latency,
                    b.stats.demand_write_latency, "demand write latency");
  expect_latency_eq(a.stats.internal_write_latency,
                    b.stats.internal_write_latency, "internal write latency");

  for (std::size_t i = 0; i < Log2Histogram::kBuckets; ++i) {
    EXPECT_EQ(a.stats.read_latency_hist.bucket(i),
              b.stats.read_latency_hist.bucket(i))
        << "read hist bucket " << i;
    EXPECT_EQ(a.stats.write_latency_hist.bucket(i),
              b.stats.write_latency_hist.bucket(i))
        << "write hist bucket " << i;
  }

  EXPECT_EQ(a.stats.counters.all(), b.stats.counters.all());

  // The full registry, name by name: catches any per-channel scalar or
  // fault tally the convenience fields do not surface.
  const auto& ma = a.metrics.all();
  const auto& mb = b.metrics.all();
  ASSERT_EQ(ma.size(), mb.size());
  auto ib = mb.begin();
  for (auto ia = ma.begin(); ia != ma.end(); ++ia, ++ib) {
    EXPECT_EQ(ia->first, ib->first);
    EXPECT_EQ(ia->second.kind, ib->second.kind) << ia->first;
    EXPECT_EQ(ia->second.count, ib->second.count) << ia->first;
    EXPECT_EQ(ia->second.value, ib->second.value) << ia->first;
  }

  ASSERT_EQ(a.banks.size(), b.banks.size());
  for (std::size_t i = 0; i < a.banks.size(); ++i) {
    EXPECT_EQ(a.banks[i].busy_time, b.banks[i].busy_time) << "bank " << i;
    EXPECT_EQ(a.banks[i].ops, b.banks[i].ops) << "bank " << i;
    EXPECT_EQ(a.banks[i].row_hits, b.banks[i].row_hits) << "bank " << i;
    EXPECT_EQ(a.banks[i].pauses, b.banks[i].pauses) << "bank " << i;
    EXPECT_EQ(a.banks[i].cache, b.banks[i].cache) << "bank " << i;
  }

  EXPECT_EQ(a.capacity_overhead, b.capacity_overhead);
  EXPECT_EQ(a.energy_read_pj, b.energy_read_pj);
  EXPECT_EQ(a.energy_write_pj, b.energy_write_pj);
  EXPECT_EQ(a.energy_refresh_pj, b.energy_refresh_pj);
  EXPECT_EQ(a.max_line_wear, b.max_line_wear);
  EXPECT_EQ(a.mean_line_wear, b.mean_line_wear);
  EXPECT_EQ(a.lifetime_years, b.lifetime_years);
  EXPECT_EQ(a.fault_injected, b.fault_injected);
  EXPECT_EQ(a.fault_retries, b.fault_retries);
  EXPECT_EQ(a.fault_demoted_writes, b.fault_demoted_writes);
  EXPECT_EQ(a.fault_remapped_rows, b.fault_remapped_rows);
  EXPECT_EQ(a.fault_dead_rows, b.fault_dead_rows);
  EXPECT_EQ(a.fault_read_disturbs, b.fault_read_disturbs);
}

SimResult run_jobs(const SimConfig& cfg, const TraceSpec& trace,
                   std::uint64_t seed, unsigned jobs) {
  RunRequest req;
  req.config = cfg;
  req.trace = trace;
  req.options = RunOptions::with_seed(seed);
  req.options.jobs = ParallelPolicy::with_jobs(jobs);
  return run(req);
}

// Serial against jobs in {2, 4}, under both scan modes. jobs = 4 on a
// two-channel config also covers the executors = min(jobs, channels)
// clamp.
void check(SimConfig cfg, const TraceSpec& trace, std::uint64_t seed) {
  for (const ScanMode mode : {ScanMode::kIndexed, ScanMode::kReference}) {
    SCOPED_TRACE(std::string("scan=") +
                 (mode == ScanMode::kIndexed ? "indexed" : "reference") +
                 " seed=" + std::to_string(seed));
    cfg.sched.scan_mode = mode;
    const SimResult serial = run_jobs(cfg, trace, seed, 1);
    for (const unsigned jobs : {2u, 4u}) {
      SCOPED_TRACE("jobs=" + std::to_string(jobs));
      expect_identical(serial, run_jobs(cfg, trace, seed, jobs));
    }
  }
}

constexpr std::uint64_t kAccesses = 12000;

SimConfig quad_channel_config(const char* preset) {
  SimConfig cfg = paper_config();
  cfg.geom.channels = 4;
  cfg.geom.ranks = 4;  // keep total ranks comparable to the paper platform
  cfg.arch.composition = arch_preset(preset);
  return cfg;
}

TEST(ShardedEquivalence, RefreshWomPcmQuadChannel) {
  check(quad_channel_config("refresh"),
        TraceSpec::benchmark("401.bzip2", kAccesses), 42);
}

TEST(ShardedEquivalence, BaselineQuadChannel) {
  check(quad_channel_config("pcm"),
        TraceSpec::benchmark("400.perlbench", kAccesses), 42);
}

TEST(ShardedEquivalence, FlipNWritePerChannelDraws) {
  // Flip-N-Write draws a fast/slow verdict per write from a seeded RNG:
  // the per-channel draw streams must make the outcome independent of how
  // the shards interleave.
  check(quad_channel_config("fnw"),
        TraceSpec::benchmark("462.libq", kAccesses), 11);
}

TEST(ShardedEquivalence, WcpcmDualChannel) {
  // WCPCM adds per-rank cache arrays, dynamic read routing, and
  // controller-spawned victim write-backs; jobs = 4 > channels = 2 also
  // exercises the executor clamp.
  SimConfig cfg = paper_config();
  cfg.geom.channels = 2;
  cfg.geom.ranks = 8;
  cfg.arch.composition = arch_preset("wcpcm");
  check(cfg, TraceSpec::benchmark("401.bzip2", kAccesses), 42);
}

TEST(ShardedEquivalence, BackPressureSmallQueues) {
  // Tiny queues force deferred injections: the coordinator's serial
  // injection loop must defer and re-time arrivals exactly as the serial
  // run does.
  SimConfig cfg = quad_channel_config("refresh");
  cfg.queue_capacity = 8;
  cfg.read_forwarding = false;
  check(cfg, TraceSpec::benchmark("464.h264ref", kAccesses), 42);
}

TEST(ShardedEquivalence, FaultInjectionOn) {
  // A deliberately tiny endurance budget on a hot write stream: retries,
  // demotions, remaps and dead rows all fire. The per-channel fault event
  // streams must line up between serial and sharded execution.
  SimConfig cfg;
  cfg.geom.channels = 2;
  cfg.geom.ranks = 2;
  cfg.geom.banks_per_rank = 2;
  cfg.geom.rows_per_bank = 64;
  cfg.geom.cols_per_row = 64;
  cfg.arch.composition = arch_preset("wom");
  cfg.warmup_accesses = 0;
  cfg.fault.enabled = true;
  cfg.fault.seed = 7;
  cfg.fault.endurance = 10.0;
  cfg.fault.sigma = 0.25;
  cfg.fault.initial_wear = 0.9;
  cfg.fault.spare_rows = 8;
  cfg.fault.read_disturb = 0.05;

  WorkloadProfile hot;
  hot.name = "hot-row";
  hot.suite = "demo";
  hot.write_fraction = 0.8;
  hot.footprint_pages = 8;
  hot.write_zipf = 1.4;
  hot.rewrite_frac = 0.9;

  const TraceSpec trace = TraceSpec::profile(hot, 6000);
  check(cfg, trace, 42);

  // The scenario actually degrades (otherwise the check proves nothing).
  const SimResult r = run_jobs(cfg, trace, 42, 2);
  EXPECT_GT(r.fault_injected, 0u);
  EXPECT_GT(r.fault_retries, 0u);
}

TEST(ShardedEquivalence, SerialFallbackSingleChannel) {
  // One channel: jobs > 1 must silently take the legacy serial path and
  // still produce the identical result.
  SimConfig cfg = paper_config();
  cfg.arch.composition = arch_preset("refresh");
  const TraceSpec trace = TraceSpec::benchmark("401.bzip2", 8000);
  expect_identical(run_jobs(cfg, trace, 42, 1), run_jobs(cfg, trace, 42, 4));
}

}  // namespace
}  // namespace wompcm
