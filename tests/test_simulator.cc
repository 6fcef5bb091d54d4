// End-to-end tests of the batch driver (SimService::run_to_completion) on
// a small geometry.
#include <gtest/gtest.h>

#include "sim/service.h"
#include "trace/synthetic.h"

namespace wompcm {
namespace {

SimConfig small_config() {
  SimConfig cfg;
  cfg.geom.channels = 1;
  cfg.geom.ranks = 2;
  cfg.geom.banks_per_rank = 2;
  cfg.geom.rows_per_bank = 64;
  cfg.geom.cols_per_row = 64;  // 8 lines/row
  cfg.warmup_accesses = 0;
  return cfg;
}

std::vector<TraceRecord> simple_trace() {
  // line_bytes = 64 on this geometry.
  return {
      {0, AccessType::kWrite, 0 * 64},
      {50, AccessType::kRead, 100 * 64},
      {50, AccessType::kWrite, 7 * 64},
      {1000, AccessType::kRead, 0 * 64},
  };
}

TEST(Simulator, CountsInjections) {
  SimConfig cfg = small_config();
  VectorTraceSource trace(simple_trace());
  const SimResult r = SimService(cfg).run_to_completion(trace);
  EXPECT_EQ(r.injected_reads, 2u);
  EXPECT_EQ(r.injected_writes, 2u);
  EXPECT_EQ(r.stats.demand_read_latency.count(), 2u);
  EXPECT_EQ(r.stats.demand_write_latency.count(), 2u);
  EXPECT_GT(r.end_time, 1100u);
  EXPECT_EQ(r.arch_name, "pcm");
}

TEST(Simulator, EmptyTrace) {
  SimConfig cfg = small_config();
  VectorTraceSource trace({});
  const SimResult r = SimService(cfg).run_to_completion(trace);
  EXPECT_EQ(r.injected_reads + r.injected_writes, 0u);
  EXPECT_EQ(r.end_time, 0u);
}

TEST(Simulator, WarmupExcludesLeadingAccesses) {
  SimConfig cfg = small_config();
  cfg.warmup_accesses = 2;
  VectorTraceSource trace(simple_trace());
  const SimResult r = SimService(cfg).run_to_completion(trace);
  // All four still injected and simulated, but only two recorded.
  EXPECT_EQ(r.injected_reads + r.injected_writes, 4u);
  EXPECT_EQ(r.stats.demand_read_latency.count() +
                r.stats.demand_write_latency.count(),
            2u);
}

TEST(Simulator, BackPressureDefersInjections) {
  SimConfig cfg = small_config();
  cfg.queue_capacity = 2;
  // A dense burst to one bank overwhelms a 2-entry queue.
  std::vector<TraceRecord> records;
  for (int i = 0; i < 16; ++i) {
    records.push_back({1, AccessType::kWrite,
                       static_cast<Addr>((i % 8) * 64)});
  }
  VectorTraceSource trace(records);
  const SimResult r = SimService(cfg).run_to_completion(trace);
  EXPECT_EQ(r.injected_writes, 16u);
  EXPECT_GT(r.deferred_injections, 0u);

  // Deferrals are booked to the channel whose queue was full: the same
  // burst aimed at channel 1 of a two-channel platform leaves channel 0's
  // books empty.
  cfg.geom.channels = 2;
  const AddressMapper mapper(cfg.geom);
  for (int i = 0; i < 16; ++i) {
    records[i].addr =
        mapper.encode(DecodedAddr{1, 0, 0, static_cast<unsigned>(i % 8), 0});
  }
  VectorTraceSource trace2(records);
  const SimResult r2 = SimService(cfg).run_to_completion(trace2);
  EXPECT_GT(r2.deferred_injections, 0u);
  EXPECT_EQ(r2.metrics.counter("ch1.deferred_injections"),
            r2.deferred_injections);
  EXPECT_EQ(r2.metrics.counter("ch0.deferred_injections"), 0u);
}

TEST(Simulator, ArchitecturePropagation) {
  SimConfig cfg = small_config();
  cfg.arch.composition = arch_preset("wcpcm");
  VectorTraceSource trace(simple_trace());
  const SimResult r = SimService(cfg).run_to_completion(trace);
  EXPECT_EQ(r.arch_name, "wcpcm[rs23-inv]");
  EXPECT_NEAR(r.capacity_overhead, 1.5 / 2.0, 1e-9);
}

TEST(Simulator, RefreshCountersSurface) {
  SimConfig cfg = small_config();
  cfg.arch.composition = arch_preset("refresh");
  std::vector<TraceRecord> records = {
      {0, AccessType::kWrite, 0},
      {300, AccessType::kWrite, 0},
      // A very late access leaves a long idle window for the refresh.
      {100000, AccessType::kRead, 64},
  };
  VectorTraceSource trace(records);
  const SimResult r = SimService(cfg).run_to_completion(trace);
  EXPECT_GE(r.refresh_commands, 1u);
  EXPECT_GE(r.refresh_rows, 1u);
}

TEST(Simulator, EnergySurfacesInResult) {
  SimConfig cfg = small_config();
  VectorTraceSource trace(simple_trace());
  const SimResult r = SimService(cfg).run_to_completion(trace);
  EXPECT_GT(r.energy_write_pj, 0.0);
  EXPECT_GT(r.energy_read_pj, 0.0);
  EXPECT_DOUBLE_EQ(r.energy_refresh_pj, 0.0);
}

TEST(Simulator, DeterministicAcrossRuns) {
  WorkloadProfile p;
  p.name = "det";
  p.suite = "test";
  SimConfig cfg = small_config();
  double first_write = -1, first_read = -1;
  for (int i = 0; i < 2; ++i) {
    SyntheticTraceSource trace(p, cfg.geom, 99, 3000);
    const SimResult r = SimService(cfg).run_to_completion(trace);
    if (i == 0) {
      first_write = r.avg_write_ns();
      first_read = r.avg_read_ns();
    } else {
      EXPECT_DOUBLE_EQ(r.avg_write_ns(), first_write);
      EXPECT_DOUBLE_EQ(r.avg_read_ns(), first_read);
    }
  }
}

TEST(Simulator, WcpcmGeneratesInternalWrites) {
  SimConfig cfg = small_config();
  cfg.arch.composition = arch_preset("wcpcm");
  // Two writes to the same rank/row from different banks force an eviction.
  AddressMapper mapper(cfg.geom);
  const Addr a = mapper.encode(DecodedAddr{0, 0, 0, 5, 0});
  const Addr b = mapper.encode(DecodedAddr{0, 0, 1, 5, 0});
  VectorTraceSource trace({{0, AccessType::kWrite, a},
                           {500, AccessType::kWrite, b}});
  const SimResult r = SimService(cfg).run_to_completion(trace);
  EXPECT_EQ(r.stats.counters.get("ctrl.internal_writes"), 1u);
  EXPECT_EQ(r.stats.internal_write_latency.count(), 1u);
  EXPECT_EQ(r.stats.counters.get("wcpcm.victims"), 1u);
}

}  // namespace
}  // namespace wompcm
