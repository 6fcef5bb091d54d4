// Optimized-vs-reference cross-check for the event-loop hot path.
//
// ScanMode::kIndexed layers bank-occupancy masks, the readiness bitmap,
// cached next-event dispatch, and memoized failed scans on top of the
// straight-line age-order scan that ScanMode::kReference still runs. The
// two modes must be observationally indistinguishable: every statistic of a
// run — counters, latency sums, histograms, per-bank utilization, energy
// and wear gauges — must match bit for bit. This suite runs both modes on
// the three reference platforms plus the scheduler/row-policy variants the
// indexed path special-cases, over multiple workloads and seeds.
#include <gtest/gtest.h>

#include <string>

#include "sim/experiment.h"

namespace wompcm {
namespace {

SimResult run_with_mode(SimConfig cfg, ScanMode mode,
                        const std::string& profile, std::uint64_t accesses,
                        std::uint64_t seed) {
  cfg.sched.scan_mode = mode;
  return run({cfg, TraceSpec::profile(*find_profile(profile), accesses),
              RunOptions::with_seed(seed)});
}

// Every deterministic field of two results must be identical. Phase
// counters are wall-clock and excluded by design.
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
    EXPECT_EQ(x.sum(), y.sum()) << what;  // bit-exact: same accumulation order
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

  // The full metrics registry, name by name: catches any per-channel or
  // architecture scalar the convenience fields above do not surface.
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
}

void check(const SimConfig& cfg, const std::string& profile,
           std::uint64_t accesses, std::uint64_t seed) {
  SCOPED_TRACE("profile=" + profile + " seed=" + std::to_string(seed));
  const SimResult ref =
      run_with_mode(cfg, ScanMode::kReference, profile, accesses, seed);
  const SimResult idx =
      run_with_mode(cfg, ScanMode::kIndexed, profile, accesses, seed);
  expect_identical(ref, idx);
}

constexpr std::uint64_t kAccesses = 15000;

TEST(HotpathEquivalence, PaperRefreshPlatform) {
  SimConfig cfg = paper_config();
  cfg.arch.composition = arch_preset("refresh");
  check(cfg, "401.bzip2", kAccesses, 42);
  check(cfg, "ocean", kAccesses, 7);
}

TEST(HotpathEquivalence, DualChannelPlatform) {
  SimConfig cfg = paper_config();
  cfg.geom.channels = 2;
  cfg.geom.ranks = 8;
  cfg.arch.composition = arch_preset("refresh");
  check(cfg, "401.bzip2", kAccesses, 42);
  check(cfg, "462.libq", kAccesses, 11);
}

TEST(HotpathEquivalence, WcpcmPlatform) {
  // WCPCM exercises dynamic routing (cache arrays, RAT migration), the
  // spawned-transaction path, and the route-version memoization.
  SimConfig cfg = paper_config();
  cfg.arch.composition = arch_preset("wcpcm");
  check(cfg, "401.bzip2", kAccesses, 42);
  check(cfg, "qsort", kAccesses, 3);
}

TEST(HotpathEquivalence, BaselineAndWomPcm) {
  SimConfig cfg = paper_config();
  cfg.arch.composition = arch_preset("pcm");
  check(cfg, "400.perlbench", kAccesses, 42);
  cfg.arch.composition = arch_preset("wom");
  check(cfg, "400.perlbench", kAccesses, 42);
}

TEST(HotpathEquivalence, ReadPriorityScheduling) {
  // The write-drain hysteresis flips the scanned queue mid-run; the indexed
  // scan must agree on every pick either way.
  SimConfig cfg = paper_config();
  cfg.arch.composition = arch_preset("refresh");
  cfg.sched.policy = SchedulingPolicy::kReadPriority;
  check(cfg, "401.bzip2", kAccesses, 42);
}

TEST(HotpathEquivalence, ClosedPageOldestFirst) {
  // No row hits to prefer and no open rows to match: the degenerate
  // scheduling case where the indexed path must fall back to pure age order.
  SimConfig cfg = paper_config();
  cfg.arch.composition = arch_preset("refresh");
  cfg.row_policy = RowPolicy::kClosed;
  cfg.sched.row_hit_first = false;
  check(cfg, "464.h264ref", kAccesses, 42);
}

TEST(HotpathEquivalence, NoReadForwardingSmallQueues) {
  // Small queues force back-pressure (deferred injections) and disabling
  // forwarding removes the contains_line fast-out — both affect which
  // events the cached next-event path must surface.
  SimConfig cfg = paper_config();
  cfg.arch.composition = arch_preset("wcpcm");
  cfg.read_forwarding = false;
  cfg.queue_capacity = 8;
  check(cfg, "401.bzip2", kAccesses, 42);
}

}  // namespace
}  // namespace wompcm
