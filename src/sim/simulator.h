// A run's configuration and result: SimConfig and SimResult.
//
// Every run is driven by SimService (sim/service.h): run() (sim/run.h)
// feeds one trace through it in batch, interactive clients open sessions
// themselves. End-of-run scalars flow through the unified metrics
// registry: every layer publishes into it and SimResult::collect() reads
// it back in one place.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "arch/arch.h"
#include "controller/controller.h"
#include "stats/metrics.h"
#include "stats/stats.h"

namespace wompcm {

// A whole run's configuration: the memory-system settings every channel
// controller shares (geometry, timing, scheduler, refresh, row policy,
// queue capacity, forwarding, DRAM tier; controller/controller.h), plus the
// architecture and the driver's own knobs.
struct SimConfig : ControllerConfig {
  ArchConfig arch;
  // Seeded fault injection (pcm/fault_model.h). Disabled by default; a
  // disabled config leaves the run bit-identical to a faultless build.
  FaultConfig fault;
  // Records fetched + decoded per trace-injection batch
  // (SimService::run_to_completion). Purely a host-side throughput knob:
  // any value >= 1 produces the bit-identical injection sequence, larger
  // blocks just amortize more of the per-record front-end overhead
  // (virtual fetch, address decode, phase timing). Must be >= 1
  // (SimService rejects 0).
  unsigned injection_block = 64;
  // Number of leading trace accesses to simulate without recording latency
  // stats (steady-state measurement, like a warmed trace window). nullopt
  // means "auto": run() (sim/run.h) resolves it to 20% of the trace
  // length; a SimService driven directly treats it as zero.
  std::optional<std::uint64_t> warmup_accesses;
};

struct SimResult {
  std::string arch_name;
  SimStats stats;
  // Every named scalar published by the run: system totals plus per-channel
  // breakdowns ("ch<N>.bus_busy_ns", "ch<N>.max_queue_depth", ...). The
  // scalar fields below are collected from this registry.
  MetricsRegistry metrics;
  Tick end_time = 0;
  std::uint64_t injected_reads = 0;
  std::uint64_t injected_writes = 0;
  std::uint64_t deferred_injections = 0;  // arrivals delayed by back-pressure
  std::uint64_t refresh_commands = 0;
  std::uint64_t refresh_rows = 0;
  double capacity_overhead = 0.0;
  double energy_read_pj = 0.0;
  double energy_write_pj = 0.0;
  double energy_refresh_pj = 0.0;
  // Endurance (see pcm/endurance.h): hottest-line pulse count and the
  // projected array lifetime at the observed wear rate.
  double max_line_wear = 0.0;
  double mean_line_wear = 0.0;
  double lifetime_years = 0.0;
  // Fault-injection outcomes (all zero when faults are off; the registry
  // reads missing names as zero, so collect() needs no gating).
  std::uint64_t fault_injected = 0;
  std::uint64_t fault_retries = 0;
  std::uint64_t fault_demoted_writes = 0;
  std::uint64_t fault_remapped_rows = 0;
  std::uint64_t fault_dead_rows = 0;
  std::uint64_t fault_read_disturbs = 0;
  // DRAM front tier outcomes (all zero when tiering is off; same no-gating
  // registry convention as the fault counters).
  std::uint64_t tier_read_hits = 0;
  std::uint64_t tier_read_misses = 0;
  std::uint64_t tier_write_hits = 0;
  std::uint64_t tier_write_misses = 0;
  std::uint64_t tier_evictions = 0;
  std::uint64_t tier_writebacks = 0;

  // Demand hit fraction of the DRAM front tier (reads + writes pooled).
  double tier_hit_rate() const {
    const double h = static_cast<double>(tier_read_hits + tier_write_hits);
    const double total =
        h + static_cast<double>(tier_read_misses + tier_write_misses);
    return total == 0.0 ? 0.0 : h / total;
  }

  // Host-side wall-clock breakdown of the run (nanoseconds). Not part of
  // the simulated state: two runs with identical stats will report
  // different phase times. codec_ns is nested inside controller work and
  // already subtracted from controller_ns.
  struct PhaseCounters {
    std::uint64_t trace_gen_ns = 0;   // fetching/decoding trace records
    std::uint64_t controller_ns = 0;  // controller ticks minus codec time
    std::uint64_t codec_ns = 0;       // WOM codec + generation tracking
    std::uint64_t total_ns = 0;       // whole event loop
  };
  PhaseCounters phases;

  // Per bank-like resource (main banks first, then any cache arrays), in
  // global-resource order.
  struct BankUtilization {
    Tick busy_time = 0;
    std::uint64_t ops = 0;
    std::uint64_t row_hits = 0;
    std::uint64_t pauses = 0;
    bool cache = false;  // true for WOM-cache arrays, false for main banks
  };
  std::vector<BankUtilization> banks;

  // Resource class selector for the utilization / row-hit accessors:
  // kAll pools every bank-like resource (the original combined figure),
  // kMain covers only main-memory banks, kCache only WOM-cache arrays.
  enum class BankClass : std::uint8_t { kAll, kMain, kCache };

  double avg_read_ns() const { return stats.demand_read_latency.mean(); }
  double avg_write_ns() const { return stats.demand_write_latency.mean(); }

  // Demand-busy fraction of the most loaded resource over the whole run.
  double max_bank_utilization(BankClass cls = BankClass::kAll) const;
  // Fraction of array accesses that hit an open row.
  double row_hit_rate(BankClass cls = BankClass::kAll) const;

  // Fills every scalar field above from the registry (and stores the
  // registry itself in `metrics`). The single aggregation point: layers
  // publish, collect() reads — no field-by-field copying in the driver.
  void collect(const MetricsRegistry& reg);
};

}  // namespace wompcm
