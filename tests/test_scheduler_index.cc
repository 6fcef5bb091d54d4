// Tests of the controller's per-bank queue index as the scheduler and the
// refresh engine see it: runs with refresh.require_empty_queues pinned as
// behaviour goldens; the scheduler's scan work and the event loop's ticks
// and pumps per issued access, bounded on a saturated and a light run; a
// multi-session service run pinned as a
// golden; and WCPCM reads moved to a new route when a cache row is
// retagged while they wait.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "arch/arch.h"
#include "common/config.h"
#include "controller/controller.h"
#include "sim/config_io.h"
#include "sim/experiment.h"
#include "sim/memory_system.h"
#include "sim/service.h"
#include "trace/profiles.h"
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

// Counted work per access issued to a bank, over a whole run of
// `accesses` records of `profile`: queue entries the scheduler visited,
// controller ticks, ticks that did nothing, and service loop iterations.
struct WorkPerIssue {
  double scan_steps = 0;
  double ticks = 0;
  double idle_ticks = 0;
  double pumps = 0;
};

WorkPerIssue work_per_issue(const SimConfig& cfg, const WorkloadProfile& p,
                            std::uint64_t accesses) {
  SimService svc(cfg);
  SyntheticTraceSource src(p, cfg.geom, 3, accesses);
  svc.run_to_completion(src);
  const MemorySystem& mem = svc.memory_system();
  std::uint64_t steps = 0, ticks = 0, idle = 0, issues = 0;
  for (unsigned c = 0; c < mem.num_channels(); ++c) {
    const MemoryController& ctrl = mem.channel(c);
    steps += ctrl.scan_steps();
    ticks += ctrl.ticks();
    idle += ctrl.idle_ticks();
    for (const Bank& b : ctrl.banks()) issues += b.ops();
  }
  EXPECT_GT(issues, accesses / 2);
  const double n = static_cast<double>(issues);
  return {static_cast<double>(steps) / n, static_cast<double>(ticks) / n,
          static_cast<double>(idle) / n,
          static_cast<double>(svc.pumps()) / n};
}

SimConfig saturated_wcpcm(WorkloadProfile* p) {
  SimConfig cfg = paper_config();
  cfg.arch.composition = arch_preset("wcpcm");
  *p = *find_profile("464.h264ref");
  p->intra_gap_ns = 4;
  p->idle_gap_mean_ns = 20;
  return cfg;
}

SimConfig paper_pcm_refresh() {
  SimConfig cfg = paper_config();
  cfg.arch.composition = arch_preset("refresh");
  return cfg;
}

// Scan work is counted, so it is the same on every host and can be bounded
// exactly. With the channel queue at capacity, every WCPCM write targets
// one of 16 busy cache arrays; a pick walks only the lists of ready banks,
// where walking the whole 64-entry window in age order visits ~125
// entries per issue.
TEST(SchedulerScanWork, SaturatedWcpcm) {
  WorkloadProfile p;
  const SimConfig cfg = saturated_wcpcm(&p);
  EXPECT_LE(work_per_issue(cfg, p, 40000).scan_steps, 12.0);
}

// The paper's light load: shallow queues, about one entry per pick.
TEST(SchedulerScanWork, PaperPcmRefresh) {
  EXPECT_LE(
      work_per_issue(paper_pcm_refresh(), *find_profile("401.bzip2"), 40000)
          .scan_steps,
      1.5);
}

// The controller schedules an instant only where an issue can happen (or
// a refresh check is due), so it ticks about once per issued access and
// almost never for nothing: ~1.04 ticks, 0.03 idle and ~1.47 service
// pumps here. Scheduling every bank finish, every arrival and every bus
// release instead ticks ~2.5 times per access, ~1.5 of them idle, in ~2.5
// pumps.
TEST(EventLoopWork, PaperPcmRefresh) {
  const WorkPerIssue w =
      work_per_issue(paper_pcm_refresh(), *find_profile("401.bzip2"), 40000);
  EXPECT_LE(w.ticks, 1.2);
  EXPECT_LE(w.idle_ticks, 0.15);
  EXPECT_LE(w.pumps, 1.6);
}

// At saturation, arrivals and bank finishes far outnumber the instants at
// which something can issue, and most queued entries sit past the scan
// window: ~1.09 ticks, 0.08 idle and ~2.08 pumps (most of them arrival
// instants) against ~2.8, 1.8 and 2.8 when every finish, arrival and bus
// release is scheduled.
TEST(EventLoopWork, SaturatedWcpcm) {
  WorkloadProfile p;
  const SimConfig cfg = saturated_wcpcm(&p);
  const WorkPerIssue w = work_per_issue(cfg, p, 40000);
  EXPECT_LE(w.ticks, 1.2);
  EXPECT_LE(w.idle_ticks, 0.15);
  EXPECT_LE(w.pumps, 2.3);
}

// Eight live sessions on 4 channels with polar WOM cells and RAT refresh,
// the shape of the benchmark's serve-polar workload at a small access
// count: each round submits up to 256 records per open session (a bounced
// tail is resubmitted next round), then steps. Returns the drained result
// and the records bounced by back-pressure.
SimResult serve_polar_run(std::uint64_t* rejected) {
  constexpr unsigned kStreams = 8;
  constexpr std::uint64_t kAccesses = 3000;
  constexpr std::size_t kChunk = 256;
  SimConfig cfg = paper_config();
  cfg.geom.channels = 4;
  cfg.geom.ranks = 4;
  cfg = apply_overrides(cfg, KeyValueConfig::from_tokens(
                                 {"main.coding=polar",
                                  "main.code=polar-m7-inv", "refresh=rat"}));
  cfg.warmup_accesses = kStreams * kAccesses / 5;
  SimService svc(cfg);
  struct Feed {
    std::unique_ptr<SyntheticTraceSource> src;
    SessionId id = 0;
    std::vector<TraceRecord> buf;
    std::size_t off = 0;
    bool eof = false;
    bool closed = false;
  };
  std::vector<Feed> feeds(kStreams);
  for (unsigned s = 0; s < kStreams; ++s) {
    const WorkloadProfile& p = benchmark_profiles()[s];
    feeds[s].src = std::make_unique<SyntheticTraceSource>(
        p, cfg.geom, 1 ^ (0x9e3779b97f4a7c15ull * (s + 1)), kAccesses);
    StreamSpec spec;
    spec.name = p.name;
    spec.capacity = 4 * kChunk;
    feeds[s].id = svc.open_session(spec);
  }
  *rejected = 0;
  for (unsigned live = kStreams; live > 0;) {
    for (Feed& fd : feeds) {
      if (fd.closed) continue;
      if (fd.off == fd.buf.size() && !fd.eof) {
        fd.buf.resize(kChunk);
        fd.buf.resize(fd.src->next_block(fd.buf.data(), kChunk));
        fd.off = 0;
        fd.eof = fd.buf.size() < kChunk;
      }
      const std::size_t n = fd.buf.size() - fd.off;
      if (n > 0) {
        const std::size_t took = svc.submit(fd.id, fd.buf.data() + fd.off, n)
                                     .accepted;
        *rejected += n - took;
        fd.off += took;
      }
      if (fd.eof && fd.off == fd.buf.size()) {
        svc.close_session(fd.id);
        fd.closed = true;
        --live;
      }
    }
    svc.step();
  }
  return svc.drain();
}

// Pins every registry entry of the multi-session run, the per-stream
// books ("stream<N>.*") included: the service path is the one the
// benchmark's serve-polar workload times, and the registry corpus pins
// only single-session batch runs.
TEST(ServiceGolden, EightSessionsPolarRat) {
  std::uint64_t rejected = 0;
  const SimResult r = serve_polar_run(&rejected);
  EXPECT_GT(rejected, 0u);
  EXPECT_EQ(r.injected_reads + r.injected_writes, 8u * 3000u);
  std::ostringstream os;
  os.precision(17);
  for (const auto& [name, m] : r.metrics.all()) {
    os << name << ' ' << m.count << ' ' << m.value << '\n';
  }
  EXPECT_NE(os.str().find("stream7.avg_read_ns"), std::string::npos);
  EXPECT_EQ(fnv(os.str()), 9783204215409460376u);
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
