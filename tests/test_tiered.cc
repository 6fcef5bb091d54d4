// DRAM-front tier: end-to-end behavior and serial-vs-sharded bit-identity.
//
// The tier (controller/tier_front.h) sits ahead of each channel's PCM
// queues: demand accesses probe a per-channel TagArray at enqueue time,
// hits complete at DRAM latency without a queue slot, misses and dirty
// evictions flow into the PCM path. This suite checks
//  - the accounting invariant: exactly one tier probe per injected demand
//    access, so hits + misses == injections per type;
//  - per-channel tier.* metrics and the pooled SimResult fields;
//  - writeback vs writethrough semantics;
//  - the dead-frame fault model degenerating to a pure bypass at rate 1.0
//    (bit-identical demand latencies to a tier-less run);
//  - bit-identity between serial and sharded execution (jobs in {2, 4})
//    under both scan modes, with PCM faults and tier faults in the mix;
//  - every file in configs/ (including tiered.cfg) running end to end.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "sim/config_io.h"
#include "sim/experiment.h"
#include "sim/run.h"

namespace wompcm {
namespace {

// Same thorough predicate as the sharded suite: every deterministic field,
// the full metrics registry (which now carries chN.tier.*), banks, energy,
// wear and fault tallies.
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
    EXPECT_EQ(x.sum(), y.sum()) << what;
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

// Two channels of the paper platform fronted by a deliberately small tier
// (64 sets x 2 ways) so the working set overflows it: hits, misses,
// evictions and dirty writebacks all fire.
SimConfig tiered_config() {
  SimConfig cfg = paper_config();
  cfg.geom.channels = 2;
  cfg.geom.ranks = 8;
  cfg.arch.composition = arch_preset("refresh");
  cfg.tier.enabled = true;
  cfg.tier.sets = 64;
  cfg.tier.ways = 2;
  cfg.tier.replacement = ReplacementKind::kLru;
  cfg.tier.write_policy = TierWritePolicy::kWriteback;
  return cfg;
}

constexpr std::uint64_t kAccesses = 12000;

TEST(Tiered, ProbeAccountingMatchesInjections) {
  // The controller probes the tier exactly once per injected demand access
  // (deferral happens before enqueue; internal and background writes skip
  // the tier), so the outcome counters partition the injections.
  const SimResult r = run_jobs(
      tiered_config(), TraceSpec::benchmark("401.bzip2", kAccesses), 42, 1);
  EXPECT_EQ(r.tier_read_hits + r.tier_read_misses, r.injected_reads);
  EXPECT_EQ(r.tier_write_hits + r.tier_write_misses, r.injected_writes);
  EXPECT_GT(r.tier_read_hits, 0u);
  EXPECT_GT(r.tier_read_misses, 0u);
  EXPECT_GT(r.tier_evictions, 0u);   // 64x2 overflows under this trace
  EXPECT_GT(r.tier_writebacks, 0u);  // writeback policy: dirty victims
  EXPECT_GT(r.tier_hit_rate(), 0.0);
  EXPECT_LT(r.tier_hit_rate(), 1.0);
}

TEST(Tiered, PerChannelMetricsPublished) {
  const SimResult r = run_jobs(
      tiered_config(), TraceSpec::benchmark("401.bzip2", kAccesses), 42, 1);
  std::uint64_t per_channel_hits = 0;
  for (const char* ch : {"ch0", "ch1"}) {
    for (const char* name :
         {"tier.read_hits", "tier.read_misses", "tier.write_hits",
          "tier.write_misses", "tier.fills", "tier.evictions",
          "tier.writebacks", "tier.dead_frames"}) {
      const std::string key = std::string(ch) + "." + name;
      EXPECT_TRUE(r.metrics.has(key)) << key;
    }
    per_channel_hits += r.metrics.counter(std::string(ch) + ".tier.read_hits");
  }
  // The unprefixed totals are the sums of the per-channel counters, and the
  // SimResult convenience fields mirror them.
  EXPECT_EQ(per_channel_hits, r.metrics.counter("tier.read_hits"));
  EXPECT_EQ(r.tier_read_hits, r.metrics.counter("tier.read_hits"));
  EXPECT_EQ(r.tier_writebacks, r.metrics.counter("tier.writebacks"));
}

TEST(Tiered, NoTierPublishesNoTierMetrics) {
  SimConfig cfg = tiered_config();
  cfg.tier.enabled = false;
  const SimResult r =
      run_jobs(cfg, TraceSpec::benchmark("401.bzip2", 6000), 42, 1);
  EXPECT_FALSE(r.metrics.has("tier.read_hits"));
  EXPECT_FALSE(r.metrics.has("ch0.tier.read_hits"));
  EXPECT_EQ(r.tier_read_hits, 0u);
  EXPECT_DOUBLE_EQ(r.tier_hit_rate(), 0.0);
}

TEST(Tiered, HitsCompleteAtDramLatency) {
  // A footprint that fits the tier: after the cold fills, every read is a
  // tier hit, so mean read latency sits far below the tier-less PCM run.
  WorkloadProfile hot;
  hot.name = "tier-resident";
  hot.suite = "demo";
  hot.write_fraction = 0.3;
  hot.footprint_pages = 4;
  const TraceSpec trace = TraceSpec::profile(hot, 8000);

  SimConfig cfg = tiered_config();
  cfg.tier.sets = 4096;
  cfg.tier.ways = 8;
  const SimResult tiered = run_jobs(cfg, trace, 42, 1);
  cfg.tier.enabled = false;
  const SimResult flat = run_jobs(cfg, trace, 42, 1);

  EXPECT_GT(tiered.tier_hit_rate(), 0.8);
  EXPECT_LT(tiered.avg_read_ns(), flat.avg_read_ns());
  EXPECT_LT(tiered.avg_write_ns(), flat.avg_write_ns());
}

TEST(Tiered, WritethroughNeverAbsorbsWrites) {
  SimConfig cfg = tiered_config();
  const TraceSpec trace = TraceSpec::benchmark("401.bzip2", kAccesses);
  const SimResult wb = run_jobs(cfg, trace, 42, 1);
  cfg.tier.write_policy = TierWritePolicy::kWritethrough;
  const SimResult wt = run_jobs(cfg, trace, 42, 1);

  // Writethrough keeps no dirty lines: no writebacks ever, and every write
  // pays the PCM path, so the mean demand write latency exceeds the
  // writeback run's (which absorbs write hits at DRAM latency).
  EXPECT_EQ(wt.tier_writebacks, 0u);
  EXPECT_GT(wb.tier_writebacks, 0u);
  EXPECT_GT(wt.avg_write_ns(), wb.avg_write_ns());
}

TEST(Tiered, AllFramesDeadDegeneratesToBypass) {
  SimConfig cfg = tiered_config();
  const TraceSpec trace = TraceSpec::benchmark("401.bzip2", 8000);
  cfg.tier.fault.enabled = true;
  cfg.tier.fault.seed = 5;
  cfg.tier.fault.frame_fail_rate = 1.0;
  const SimResult dead = run_jobs(cfg, trace, 42, 1);

  EXPECT_EQ(dead.tier_read_hits, 0u);
  EXPECT_EQ(dead.tier_write_hits, 0u);
  EXPECT_EQ(dead.metrics.counter("tier.fills"), 0u);
  EXPECT_EQ(dead.tier_writebacks, 0u);
  EXPECT_GT(dead.metrics.counter("tier.dead_frames"), 0u);

  // Pure bypass: the PCM side must behave exactly as if the tier were off.
  cfg.tier.enabled = false;
  const SimResult flat = run_jobs(cfg, trace, 42, 1);
  EXPECT_EQ(dead.end_time, flat.end_time);
  EXPECT_EQ(dead.stats.demand_read_latency.sum(),
            flat.stats.demand_read_latency.sum());
  EXPECT_EQ(dead.stats.demand_write_latency.sum(),
            flat.stats.demand_write_latency.sum());
  EXPECT_EQ(dead.stats.internal_write_latency.sum(),
            flat.stats.internal_write_latency.sum());
}

TEST(Tiered, PartialFrameFailuresStillServeHits) {
  SimConfig cfg = tiered_config();
  cfg.tier.fault.enabled = true;
  cfg.tier.fault.seed = 5;
  cfg.tier.fault.frame_fail_rate = 0.3;
  const SimResult r = run_jobs(
      cfg, TraceSpec::benchmark("401.bzip2", kAccesses), 42, 1);
  EXPECT_GT(r.metrics.counter("tier.dead_frames"), 0u);
  EXPECT_GT(r.tier_read_hits, 0u);  // healthy frames keep working
  EXPECT_EQ(r.tier_read_hits + r.tier_read_misses, r.injected_reads);
}

// Serial against jobs in {2, 4}, under both scan modes (the same matrix as
// the sharded suite): the per-channel tier state is owned by its channel's
// enqueue stream, so sharding must not perturb a single counter.
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

TEST(TieredEquivalence, ShardedMatchesSerial) {
  check(tiered_config(), TraceSpec::benchmark("401.bzip2", kAccesses), 42);
}

TEST(TieredEquivalence, ShardedMatchesSerialWritethrough) {
  SimConfig cfg = tiered_config();
  cfg.tier.write_policy = TierWritePolicy::kWritethrough;
  cfg.tier.replacement = ReplacementKind::kFifo;
  check(cfg, TraceSpec::benchmark("464.h264ref", kAccesses), 42);
}

TEST(TieredEquivalence, ShardedMatchesSerialRandomReplacement) {
  // The random policy draws from a per-channel seeded stream: the draws
  // must be a function of that channel's access order alone.
  SimConfig cfg = tiered_config();
  cfg.tier.replacement = ReplacementKind::kRandom;
  check(cfg, TraceSpec::benchmark("462.libq", kAccesses), 11);
}

TEST(TieredEquivalence, ShardedMatchesSerialWithTierFaults) {
  SimConfig cfg = tiered_config();
  cfg.tier.fault.enabled = true;
  cfg.tier.fault.seed = 9;
  cfg.tier.fault.frame_fail_rate = 0.4;
  check(cfg, TraceSpec::benchmark("401.bzip2", kAccesses), 42);
}

TEST(TieredEquivalence, ShardedMatchesSerialWithPcmFaults) {
  // PCM fault injection (PR 4) and the tier compose: tier misses wear the
  // array, writebacks retry on faulty lines, and the whole stack must stay
  // deterministic under sharding.
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
  cfg.tier.enabled = true;
  cfg.tier.sets = 32;
  cfg.tier.ways = 2;

  WorkloadProfile hot;
  hot.name = "hot-row";
  hot.suite = "demo";
  hot.write_fraction = 0.8;
  hot.footprint_pages = 8;
  hot.write_zipf = 1.4;
  hot.rewrite_frac = 0.9;

  const TraceSpec trace = TraceSpec::profile(hot, 6000);
  check(cfg, trace, 42);

  const SimResult r = run_jobs(cfg, trace, 42, 2);
  EXPECT_GT(r.fault_injected, 0u);  // the PCM side actually degrades
  EXPECT_GT(r.tier_write_hits, 0u);  // and the tier actually absorbs
}

TEST(Tiered, EveryConfigFileRunsEndToEnd) {
  // Each shipped .cfg (including tiered.cfg) loads over the paper defaults
  // and completes a short run: a config keyed to a renamed or removed knob
  // fails here, not on a user's command line.
  const std::filesystem::path dir =
      std::filesystem::path(WOMPCM_REPO_DIR) / "configs";
  const WorkloadProfile profile = *find_profile("401.bzip2");
  std::size_t count = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".cfg") continue;
    SCOPED_TRACE(entry.path().filename().string());
    const SimConfig cfg =
        load_config_file(paper_config(), entry.path().string());
    const SimResult r = run(
        {cfg, TraceSpec::profile(profile, 2000), RunOptions::with_seed(7)});
    EXPECT_GT(r.end_time, 0u);
    EXPECT_EQ(r.injected_reads + r.injected_writes, 2000u);
    ++count;
  }
  EXPECT_GE(count, 9u);  // dualchannel embedded faulty fnw_wom_cache
                         // hidden_refresh_cache paper symmetric_cache
                         // wcpcm32 tiered
}

}  // namespace
}  // namespace wompcm
