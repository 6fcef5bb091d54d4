// Tests of the controller's per-bank queue index as the scheduler and the
// refresh engine see it: runs with refresh.require_empty_queues pinned as
// behaviour goldens; the scheduler's scan work per issued access, bounded
// on a saturated and a light run; and WCPCM reads moved to a new route
// when a cache row is retagged while they wait.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>

#include "arch/arch.h"
#include "controller/controller.h"
#include "sim/experiment.h"
#include "sim/memory_system.h"
#include "sim/service.h"
#include "trace/synthetic.h"

namespace wompcm {
namespace {

std::uint64_t fnv(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char c : s) h = (h ^ c) * 0x100000001b3ull;
  return h;
}

// A run's books as text: every registry entry, every counter and the
// demand and internal latency totals.
std::string books(const SimResult& r) {
  std::ostringstream os;
  os.precision(17);
  for (const auto& [name, m] : r.metrics.all()) {
    os << name << ' ' << m.count << ' ' << m.value << '\n';
  }
  for (const auto& [name, v] : r.stats.counters.all()) {
    os << name << ' ' << v << '\n';
  }
  for (const LatencyStats* l :
       {&r.stats.demand_read_latency, &r.stats.demand_write_latency,
        &r.stats.internal_write_latency}) {
    os << l->count() << ' ' << l->sum() << ' ' << l->min() << ' ' << l->max()
       << '\n';
  }
  return os.str();
}

// 464.h264ref with its gaps shrunk until the queues stay deep, on the paper
// platform: refresh checks find queued demand on most units.
RunRequest loaded_run(const char* preset, unsigned scan_limit,
                      bool require_empty_queues) {
  SimConfig cfg = paper_config();
  cfg.arch.composition = arch_preset(preset);
  cfg.sched.scan_limit = scan_limit;
  cfg.refresh.require_empty_queues = require_empty_queues;
  WorkloadProfile p = *find_profile("464.h264ref");
  p.intra_gap_ns = 4;
  p.idle_gap_mean_ns = 20;
  return {cfg, TraceSpec::profile(p, 20000), RunOptions::with_seed(3)};
}

// require_empty_queues=true keeps refresh off every unit some queued read
// or write targets. Both refresh compositions are pinned, and each differs
// from its run with the key off, so the pin covers the check itself. The
// default 64-entry scan window issues an arrived read as soon as its unit
// is idle, so there the check mostly sees writes; a 4-entry window leaves
// arrived reads waiting on idle units, so the read side counts too.
TEST(RequireEmptyQueuesGolden, WcpcmAndPcmRefresh) {
  struct Case {
    const char* preset;
    unsigned scan_limit;
    std::uint64_t hash;
  };
  for (const Case& c : {Case{"wcpcm", 64, 13582693405411845420u},
                        Case{"refresh", 64, 6506604506178091147u},
                        Case{"wcpcm", 4, 239114455778676664u},
                        Case{"refresh", 4, 13856364206740434410u}}) {
    SCOPED_TRACE(std::string(c.preset) + " scan_limit " +
                 std::to_string(c.scan_limit));
    const std::string on = books(run(loaded_run(c.preset, c.scan_limit, true)));
    const std::string off =
        books(run(loaded_run(c.preset, c.scan_limit, false)));
    EXPECT_NE(on, off);
    EXPECT_EQ(fnv(on), c.hash);
  }
}

// Queue entries the scheduler visited per access issued to a bank, over a
// whole run of `accesses` records of `profile`.
double scan_steps_per_issue(const SimConfig& cfg, const WorkloadProfile& p,
                            std::uint64_t accesses) {
  SimService svc(cfg);
  SyntheticTraceSource src(p, cfg.geom, 3, accesses);
  svc.run_to_completion(src);
  const MemorySystem& mem = svc.memory_system();
  std::uint64_t steps = 0;
  std::uint64_t issues = 0;
  for (unsigned c = 0; c < mem.num_channels(); ++c) {
    steps += mem.channel(c).scan_steps();
    for (const Bank& b : mem.channel(c).banks()) issues += b.ops();
  }
  EXPECT_GT(issues, accesses / 2);
  return static_cast<double>(steps) / static_cast<double>(issues);
}

// Scan work is counted, so it is the same on every host and can be bounded
// exactly. With the channel queue at capacity, every WCPCM write targets
// one of 16 busy cache arrays; a pick walks only the lists of ready banks,
// where walking the whole 64-entry window in age order visits ~125
// entries per issue.
TEST(SchedulerScanWork, SaturatedWcpcm) {
  SimConfig cfg = paper_config();
  cfg.arch.composition = arch_preset("wcpcm");
  WorkloadProfile p = *find_profile("464.h264ref");
  p.intra_gap_ns = 4;
  p.idle_gap_mean_ns = 20;
  EXPECT_LE(scan_steps_per_issue(cfg, p, 40000), 12.0);
}

// The paper's light load: shallow queues, about one entry per pick.
TEST(SchedulerScanWork, PaperPcmRefresh) {
  SimConfig cfg = paper_config();
  cfg.arch.composition = arch_preset("refresh");
  EXPECT_LE(scan_steps_per_issue(cfg, *find_profile("401.bzip2"), 40000),
            1.5);
}

// One WCPCM channel of 2 ranks x 2 banks, refresh off, driven
// transaction by transaction. Every pick is checked against the reference
// scan, which routes each read by probing the cache tags live, so a read
// left on its old list after a retag aborts the test.
class WcpcmRetag : public ::testing::Test {
 protected:
  void build(const FaultConfig& fault = {}) {
    cfg_.geom.channels = 1;
    cfg_.geom.ranks = 2;
    cfg_.geom.banks_per_rank = 2;
    cfg_.geom.rows_per_bank = 16;
    cfg_.geom.cols_per_row = 64;  // 8 lines/row
    cfg_.refresh.enabled = false;
    ArchConfig arch;
    arch.composition = arch_preset("wcpcm");
    arch_ = std::make_unique<Architecture>(cfg_.geom, cfg_.timing, arch, fault);
    ctrl_ = std::make_unique<MemoryController>(cfg_, 0, *arch_, stats_);
  }

  void enqueue(unsigned bank, unsigned row, unsigned col, AccessType type,
               Tick arrival) {
    Transaction t;
    t.id = ++ids_;
    t.dec = DecodedAddr{0, 0, bank, row, col};
    t.type = type;
    t.arrival = arrival;
    ctrl_->enqueue(t);
  }

  // Runs the controller's events from `now` until it is quiescent.
  Tick run_to_drain(Tick now) {
    ctrl_->tick(now);
    for (Tick t = ctrl_->next_event_after(now); t != kNeverTick;
         t = ctrl_->next_event_after(now)) {
      now = t;
      ctrl_->tick(now);
    }
    EXPECT_TRUE(ctrl_->drained());
    return now;
  }

  std::uint64_t counter(const char* name) const {
    return arch_->counters().get(name);
  }

  // Global resources: main bank 1 of rank 0, and rank 0's cache array.
  static constexpr unsigned kBank1 = 1;
  static constexpr unsigned kCache = 4;

  ControllerConfig cfg_;
  SimStats stats_;
  std::unique_ptr<Architecture> arch_;
  std::unique_ptr<MemoryController> ctrl_;
  std::uint64_t ids_ = 0;
};

// A read of an uncached line waits behind a read of the same main bank.
// Meanwhile a write of its line installs the cache row, so the read turns
// into a cache hit and issues on the cache array.
TEST_F(WcpcmRetag, InstallMovesAWaitingReadToTheCacheArray) {
  build();
  enqueue(kBank1, 9, 0, AccessType::kRead, 0);   // holds main bank 1
  enqueue(kBank1, 5, 2, AccessType::kRead, 0);   // a miss, for now
  enqueue(kBank1, 5, 2, AccessType::kWrite, 0);  // installs row 5, line 2
  run_to_drain(0);
  EXPECT_EQ(counter("wcpcm.read_misses"), 1u);
  EXPECT_EQ(counter("wcpcm.read_hits"), 1u);
  EXPECT_EQ(ctrl_->bank(kBank1).ops(), 1u);
  EXPECT_EQ(ctrl_->bank(kCache).ops(), 2u);
}

// Every line starts past its endurance budget but short of death, so its
// first write succeeds (degraded) and its second kills the row. A read
// that hits the cached line 2 waits while a second write of line 3
// retires the row: the read turns into a miss and issues on main memory
// at once, not after the cache array's long faulty write.
TEST_F(WcpcmRetag, RetirementMovesAWaitingReadToMainMemory) {
  FaultConfig fault;
  fault.enabled = true;
  fault.endurance = 1.0;
  fault.sigma = 0.0;
  fault.initial_wear = 1.2;
  build(fault);
  enqueue(kBank1, 5, 2, AccessType::kWrite, 0);
  enqueue(kBank1, 5, 3, AccessType::kWrite, 0);
  const Tick t = run_to_drain(0) + 1000;
  ASSERT_EQ(counter("wcpcm.dead_rows"), 0u);
  const std::uint64_t hits = counter("wcpcm.read_hits");

  enqueue(kBank1, 5, 3, AccessType::kWrite, t);     // kills row 5
  enqueue(kBank1, 5, 2, AccessType::kRead, t + 1);  // a hit, for now
  run_to_drain(t);
  EXPECT_EQ(counter("wcpcm.dead_rows"), 1u);
  EXPECT_EQ(counter("wcpcm.read_hits"), hits);
  EXPECT_EQ(counter("wcpcm.read_misses"), 1u);
  // The read waits only for the write's data burst, then opens main bank
  // 1's row.
  const PcmTiming& tm = cfg_.timing;
  ASSERT_EQ(stats_.demand_read_latency.count(), 1u);
  EXPECT_EQ(stats_.demand_read_latency.max(),
            tm.burst_ns() - 1 + tm.tag_check_ns + tm.row_read_ns +
                tm.col_read_ns + tm.burst_ns());
}

}  // namespace
}  // namespace wompcm
