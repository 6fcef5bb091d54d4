// WCPCM demo (Section 4): sweeps banks/rank for one benchmark and reports
// the WOM-cache behaviour — hit rates, victim traffic, capacity overhead,
// and the resulting write/read latencies.
//
// Any SimConfig key overrides the paper platform; with fault.enabled=true
// the table grows graceful-degradation columns (dead WOM-cache rows bypass
// to main memory, dead main rows remap onto spares). The design defaults to
// the wcpcm preset; arch= picks another preset, and the composition keys
// (main.coding=, cache.enabled=, cache.coding=, refresh=) override single
// axes of it. Cache columns print "-" for cacheless compositions.
//
// Usage: wcpcm_demo [benchmark=NAME] [accesses=N] [seed=S] [key=value...]
//        e.g. wcpcm_demo fault.enabled=true fault.endurance=400
//               fault.initial_wear=0.9 fault.sigma=0.35
//        e.g. wcpcm_demo main.coding=fnw cache.enabled=true refresh=rat

#include <cstdint>
#include <cstdio>
#include <exception>

#include "womcode.h"

using namespace wompcm;

namespace {

int demo_main(const KeyValueConfig& args) {
  const std::string bench = args.get_string_or("benchmark", "401.bzip2");
  const auto accesses = static_cast<std::uint64_t>(
      args.get_int_in("accesses", 100000, 1, INT64_MAX));
  const auto seed =
      static_cast<std::uint64_t>(args.get_int_in("seed", 42, 0, INT64_MAX));

  const auto profile = find_profile(bench);
  if (!profile) {
    std::printf("unknown benchmark %s\n", bench.c_str());
    return 1;
  }

  SimConfig base = paper_config();
  base.arch.composition = arch_preset("wcpcm");
  base = apply_overrides(base, args,
                         /*harness_keys=*/{"benchmark", "accesses", "seed"});
  const bool faults = base.fault.enabled;
  const Composition& comp = base.arch.composition;

  std::printf("%s on %s, banks/rank sweep (paper Figs. 6 and 7 axes)%s\n\n",
              comp.cache_enabled ? "WOM-cache composition" : "Composition",
              bench.c_str(), faults ? " [fault injection ON]" : "");
  std::vector<std::string> header = {
      "banks/rank", "write hit%", "read hit%", "victims", "avg write ns",
      "avg read ns", "row hit% main", "row hit% $", "util main", "util $",
      "overhead%"};
  if (faults) {
    header.insert(header.end(),
                  {"demoted", "remapped", "dead $ rows", "bypasses"});
  }
  TextTable t(header);
  for (const unsigned banks : {4u, 8u, 16u, 32u}) {
    SimConfig cfg = base;
    // Fixed total capacity: fewer banks per rank means larger banks, and
    // the per-rank WOM-cache (sized like one bank) grows accordingly.
    cfg.geom.banks_per_rank = banks;
    cfg.geom.rows_per_bank = 32768 * 32 / banks;
    const SimResult r =
        run({cfg, TraceSpec::profile(*profile, accesses), RunOptions::with_seed(seed)});
    const double wh = static_cast<double>(
        r.stats.counters.get("wcpcm.write_hits"));
    const double wm = static_cast<double>(
        r.stats.counters.get("wcpcm.write_misses"));
    const double rh =
        static_cast<double>(r.stats.counters.get("wcpcm.read_hits"));
    const double rm =
        static_cast<double>(r.stats.counters.get("wcpcm.read_misses"));
    // Cacheless compositions have no hit/miss traffic: print "-" rather
    // than the NaN a 0/0 division would produce.
    const auto pct = [](double n, double d) {
      return d == 0.0 ? std::string("-") : TextTable::fmt(100.0 * n / d, 1);
    };
    std::vector<std::string> row = {
        std::to_string(banks),
        pct(wh, wh + wm),
        pct(rh, rh + rm),
        std::to_string(r.stats.counters.get("wcpcm.victims")),
        TextTable::fmt(r.avg_write_ns(), 1),
        TextTable::fmt(r.avg_read_ns(), 1),
        // Main banks and WOM-cache arrays behave differently enough
        // that the pooled figures hide both: report them per class.
        TextTable::fmt(100.0 * r.row_hit_rate(SimResult::BankClass::kMain),
                       1),
        comp.cache_enabled
            ? TextTable::fmt(
                  100.0 * r.row_hit_rate(SimResult::BankClass::kCache), 1)
            : "-",
        TextTable::fmt(r.max_bank_utilization(SimResult::BankClass::kMain),
                       3),
        comp.cache_enabled
            ? TextTable::fmt(
                  r.max_bank_utilization(SimResult::BankClass::kCache), 3)
            : "-",
        TextTable::fmt(r.capacity_overhead * 100.0, 1)};
    if (faults) {
      row.push_back(std::to_string(r.fault_demoted_writes));
      row.push_back(std::to_string(r.fault_remapped_rows));
      row.push_back(std::to_string(r.stats.counters.get("wcpcm.dead_rows")));
      row.push_back(
          std::to_string(r.stats.counters.get("wcpcm.bypass_writes")));
    }
    t.add_row(row);
  }
  std::printf("%s", t.to_text().c_str());
  if (faults) {
    std::printf(
        "\nfault seed %llu: dead WOM-cache rows are retired (later writes "
        "bypass to\nmain memory); dead main rows remap onto per-bank "
        "spares.\n",
        static_cast<unsigned long long>(base.fault.seed));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return demo_main(KeyValueConfig::from_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "wcpcm_demo: %s\n", e.what());
    return 1;
  }
}
