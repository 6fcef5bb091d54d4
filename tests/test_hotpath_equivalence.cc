// Audited runs of the event-loop hot path.
//
// The indexed scan layers bank-occupancy masks, the readiness bitmap and
// cached next-event dispatch on top of the straight-line age-order scan
// (pick_transaction). The test suite links the audit build of the
// library, in which every find_pick result is compared with the
// straight-line scan and every channel the memory system skips is
// checked to have nothing issuable and no refresh check due; a failed
// check aborts the run. This suite drives that audit over the three
// reference platforms plus the scheduler/row-policy variants the indexed
// path special-cases, over multiple workloads and seeds.
#include <gtest/gtest.h>

#include <string>

#include "sim/experiment.h"

namespace wompcm {
namespace {

// One audited run. The audit is the check; the counts confirm that the
// whole trace went through the scheduler.
void check(const SimConfig& cfg, const std::string& profile,
           std::uint64_t accesses, std::uint64_t seed) {
  SCOPED_TRACE("profile=" + profile + " seed=" + std::to_string(seed));
  const SimResult r =
      run({cfg, TraceSpec::profile(*find_profile(profile), accesses),
           RunOptions::with_seed(seed)});
  EXPECT_EQ(r.injected_reads + r.injected_writes, accesses);
  EXPECT_GT(r.end_time, 0u);
  EXPECT_GT(r.stats.demand_read_latency.count() +
                r.stats.demand_write_latency.count(),
            0u);
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
  // scan must agree with the straight-line scan on every pick either way.
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
