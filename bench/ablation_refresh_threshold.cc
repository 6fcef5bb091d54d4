// Section 3.2 ablation: the refresh threshold r_th and write pausing.
//
// r_th filters refresh target ranks to those where at least r_th of the
// banks have a pending alpha-row; higher thresholds issue fewer, more
// efficient refresh commands at the cost of missed opportunities. Write
// pausing lets demand accesses preempt an in-progress refresh.
//
// Usage: ablation_refresh_threshold [accesses=N] [seed=S]

#include <cstdint>
#include <cstdio>
#include <exception>

#include "common/config.h"
#include "sim/experiment.h"
#include "stats/table.h"

using namespace wompcm;

namespace {

int threshold_main(const KeyValueConfig& args) {
  const auto accesses = static_cast<std::uint64_t>(
      args.get_int_in("accesses", 80000, 1, INT64_MAX));
  const auto seed =
      static_cast<std::uint64_t>(args.get_int_in("seed", 42, 0, INT64_MAX));

  const char* benches[] = {"464.h264ref", "qsort", "water-ns"};
  const double thresholds[] = {0.0, 0.05, 0.15, 0.50};

  std::printf("PCM-refresh threshold ablation (PCM-refresh architecture, "
              "normalized write latency vs conventional PCM)\n\n");
  TextTable t({"benchmark", "r_th=0", "r_th=0.05", "r_th=0.15", "r_th=0.50",
               "no pausing", "cmds@0"});
  for (const char* name : benches) {
    const auto p = *find_profile(name);
    SimConfig base = paper_config();
    base.arch.composition = arch_preset("pcm");
    const SimResult rb = run({base, TraceSpec::profile(p, accesses),
                              RunOptions::with_seed(seed)});

    std::vector<std::string> row{name};
    std::uint64_t cmds0 = 0;
    for (const double th : thresholds) {
      SimConfig cfg = paper_config();
      cfg.arch.composition = arch_preset("refresh");
      cfg.refresh.threshold = th;
      const SimResult res = run({cfg, TraceSpec::profile(p, accesses),
                                 RunOptions::with_seed(seed)});
      if (th == 0.0) cmds0 = res.refresh_commands;
      row.push_back(TextTable::fmt(res.avg_write_ns() / rb.avg_write_ns()));
    }
    SimConfig cfg = paper_config();
    cfg.arch.composition = arch_preset("refresh");
    cfg.refresh.write_pausing = false;
    const SimResult nop = run({cfg, TraceSpec::profile(p, accesses),
                               RunOptions::with_seed(seed)});
    row.push_back(TextTable::fmt(nop.avg_write_ns() / rb.avg_write_ns()));
    row.push_back(std::to_string(cmds0));
    t.add_row(std::move(row));
  }
  std::printf("%s\n", t.to_text().c_str());
  std::printf(
      "expected shape: latency degrades monotonically toward plain WOM-code\n"
      "PCM as r_th rises (fewer eligible ranks); disabling write pausing\n"
      "costs a little extra demand latency\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return threshold_main(KeyValueConfig::from_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ablation_refresh_threshold: %s\n", e.what());
    return 1;
  }
}
