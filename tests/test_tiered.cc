// DRAM-front tier: end-to-end behavior.
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
//  - every file in configs/ (including tiered.cfg) running end to end.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "common/rng.h"
#include "controller/tier_front.h"
#include "sim/config_io.h"
#include "sim/experiment.h"
#include "sim/run.h"

namespace wompcm {
namespace {

SimResult run_tiered(const SimConfig& cfg, const TraceSpec& trace,
                     std::uint64_t seed) {
  return run({cfg, trace, RunOptions::with_seed(seed)});
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

// Which reads of a fixed random sequence over 1.5x the tier's frames one
// channel's tier absorbs: the pattern depends on that channel's victim
// choices and dead frames.
std::vector<bool> tier_hits(const SimConfig& cfg, unsigned channel) {
  TierFront front(cfg.tier, cfg.geom, channel);
  Rng rng(3);
  const unsigned lines = 3 * cfg.tier.sets * cfg.tier.ways / 2;
  std::vector<bool> hits;
  for (Tick now = 0; now < 100 * 2048; now += 100) {
    const auto row = static_cast<unsigned>(rng.next_below(lines));
    hits.push_back(front.on_read(DecodedAddr{channel, 0, 0, row, 0}, now)
                       .absorbed);
  }
  return hits;
}

TEST(Tiered, ProbeAccountingMatchesInjections) {
  // The controller probes the tier exactly once per injected demand access
  // (deferral happens before enqueue; internal and background writes skip
  // the tier), so the outcome counters partition the injections.
  const SimResult r = run_tiered(
      tiered_config(), TraceSpec::benchmark("401.bzip2", kAccesses), 42);
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
  const SimResult r = run_tiered(
      tiered_config(), TraceSpec::benchmark("401.bzip2", kAccesses), 42);
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

  // Each channel's tier draws its own random victims: the same reads hit
  // differently on channel 0 and channel 1.
  SimConfig random = tiered_config();
  random.tier.replacement = ReplacementKind::kRandom;
  EXPECT_NE(tier_hits(random, 0), tier_hits(random, 1));
}

TEST(Tiered, NoTierPublishesNoTierMetrics) {
  SimConfig cfg = tiered_config();
  cfg.tier.enabled = false;
  const SimResult r =
      run_tiered(cfg, TraceSpec::benchmark("401.bzip2", 6000), 42);
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
  const SimResult tiered = run_tiered(cfg, trace, 42);
  cfg.tier.enabled = false;
  const SimResult flat = run_tiered(cfg, trace, 42);

  EXPECT_GT(tiered.tier_hit_rate(), 0.8);
  EXPECT_LT(tiered.avg_read_ns(), flat.avg_read_ns());
  EXPECT_LT(tiered.avg_write_ns(), flat.avg_write_ns());
}

TEST(Tiered, WritethroughNeverAbsorbsWrites) {
  SimConfig cfg = tiered_config();
  const TraceSpec trace = TraceSpec::benchmark("401.bzip2", kAccesses);
  const SimResult wb = run_tiered(cfg, trace, 42);
  cfg.tier.write_policy = TierWritePolicy::kWritethrough;
  const SimResult wt = run_tiered(cfg, trace, 42);

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
  const SimResult dead = run_tiered(cfg, trace, 42);

  EXPECT_EQ(dead.tier_read_hits, 0u);
  EXPECT_EQ(dead.tier_write_hits, 0u);
  EXPECT_EQ(dead.metrics.counter("tier.fills"), 0u);
  EXPECT_EQ(dead.tier_writebacks, 0u);
  EXPECT_GT(dead.metrics.counter("tier.dead_frames"), 0u);

  // Pure bypass: the PCM side must behave exactly as if the tier were off.
  cfg.tier.enabled = false;
  const SimResult flat = run_tiered(cfg, trace, 42);
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
  const SimResult r =
      run_tiered(cfg, TraceSpec::benchmark("401.bzip2", kAccesses), 42);
  EXPECT_GT(r.metrics.counter("tier.dead_frames"), 0u);
  EXPECT_GT(r.tier_read_hits, 0u);  // healthy frames keep working
  EXPECT_EQ(r.tier_read_hits + r.tier_read_misses, r.injected_reads);

  // Frame failures are drawn per (seed, channel, frame): the same reads
  // meet different dead frames on channel 0 and channel 1.
  EXPECT_NE(tier_hits(cfg, 0), tier_hits(cfg, 1));
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
