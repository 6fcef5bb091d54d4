#include "sim/simulator.h"

namespace wompcm {

void SimResult::collect(const MetricsRegistry& reg) {
  metrics = reg;
  end_time = reg.counter("sim.end_time");
  injected_reads = reg.counter("sim.injected_reads");
  injected_writes = reg.counter("sim.injected_writes");
  deferred_injections = reg.counter("sim.deferred_injections");
  refresh_commands = reg.counter("refresh.commands");
  refresh_rows = reg.counter("refresh.rows");
  capacity_overhead = reg.gauge("arch.capacity_overhead");
  energy_read_pj = reg.gauge("energy.read_pj");
  energy_write_pj = reg.gauge("energy.write_pj");
  energy_refresh_pj = reg.gauge("energy.refresh_pj");
  max_line_wear = reg.gauge("wear.max_line");
  mean_line_wear = reg.gauge("wear.mean_line");
  lifetime_years = reg.gauge("wear.lifetime_years");
  fault_injected = reg.counter("fault.injected");
  fault_retries = reg.counter("fault.retries");
  fault_demoted_writes = reg.counter("fault.demoted_writes");
  fault_remapped_rows = reg.counter("fault.remapped_rows");
  fault_dead_rows = reg.counter("fault.dead_rows");
  fault_read_disturbs = reg.counter("fault.read_disturbs");
  tier_read_hits = reg.counter("tier.read_hits");
  tier_read_misses = reg.counter("tier.read_misses");
  tier_write_hits = reg.counter("tier.write_hits");
  tier_write_misses = reg.counter("tier.write_misses");
  tier_evictions = reg.counter("tier.evictions");
  tier_writebacks = reg.counter("tier.writebacks");
}

namespace {

bool in_class(const SimResult::BankUtilization& b,
              SimResult::BankClass cls) {
  switch (cls) {
    case SimResult::BankClass::kAll:
      return true;
    case SimResult::BankClass::kMain:
      return !b.cache;
    case SimResult::BankClass::kCache:
      return b.cache;
  }
  return true;
}

}  // namespace

double SimResult::max_bank_utilization(BankClass cls) const {
  if (end_time == 0) return 0.0;
  Tick busiest = 0;
  for (const BankUtilization& b : banks) {
    if (in_class(b, cls) && b.busy_time > busiest) busiest = b.busy_time;
  }
  return static_cast<double>(busiest) / static_cast<double>(end_time);
}

double SimResult::row_hit_rate(BankClass cls) const {
  std::uint64_t ops = 0, hits = 0;
  for (const BankUtilization& b : banks) {
    if (!in_class(b, cls)) continue;
    ops += b.ops;
    hits += b.row_hits;
  }
  return ops == 0 ? 0.0
                  : static_cast<double>(hits) / static_cast<double>(ops);
}

}  // namespace wompcm
