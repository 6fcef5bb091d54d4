// PCM-refresh tuning study (Section 3.2): sweeps the refresh threshold
// r_th, the refresh period, and write pausing, showing how each knob trades
// refresh aggressiveness against demand interference.
//
// Usage: refresh_tuning [benchmark=NAME] [accesses=N] [seed=S]

#include <cstdint>
#include <cstdio>
#include <exception>

#include "womcode.h"

using namespace wompcm;

namespace {

SimResult run_cfg(const WorkloadProfile& profile, double threshold,
                  Tick period, bool pausing, std::uint64_t accesses,
                  std::uint64_t seed) {
  SimConfig cfg = paper_config();
  cfg.arch.composition = arch_preset("refresh");
  cfg.refresh.threshold = threshold;
  cfg.refresh.write_pausing = pausing;
  cfg.timing.refresh_period_ns = period;
  return run({cfg, TraceSpec::profile(profile, accesses), RunOptions::with_seed(seed)});
}

int tuning_main(const KeyValueConfig& args) {
  const std::string bench = args.get_string_or("benchmark", "464.h264ref");
  const auto accesses = static_cast<std::uint64_t>(
      args.get_int_in("accesses", 100000, 1, INT64_MAX));
  const auto seed =
      static_cast<std::uint64_t>(args.get_int_in("seed", 42, 0, INT64_MAX));

  const auto profile = find_profile(bench);
  if (!profile) {
    std::printf("unknown benchmark %s\n", bench.c_str());
    return 1;
  }

  std::printf("PCM-refresh tuning on %s\n\n", bench.c_str());

  TextTable t({"r_th", "period ns", "pausing", "avg write ns", "avg read ns",
               "refresh cmds", "rows refreshed", "pauses"});
  const Tick base_period = PcmTiming{}.refresh_period_ns;
  for (const double th : {0.0, 0.25, 0.5, 0.75}) {
    const SimResult r = run_cfg(*profile, th, base_period, true, accesses,
                                seed);
    t.add_row({TextTable::fmt(th, 2), std::to_string(base_period), "yes",
               TextTable::fmt(r.avg_write_ns(), 1),
               TextTable::fmt(r.avg_read_ns(), 1),
               std::to_string(r.refresh_commands),
               std::to_string(r.refresh_rows),
               std::to_string(r.stats.counters.get("ctrl.refresh_pauses"))});
  }
  for (const Tick period : {1000ull, 2000ull, 8000ull, 16000ull}) {
    const SimResult r = run_cfg(*profile, 0.0, period, true, accesses, seed);
    t.add_row({"0.00", std::to_string(period), "yes",
               TextTable::fmt(r.avg_write_ns(), 1),
               TextTable::fmt(r.avg_read_ns(), 1),
               std::to_string(r.refresh_commands),
               std::to_string(r.refresh_rows),
               std::to_string(r.stats.counters.get("ctrl.refresh_pauses"))});
  }
  const SimResult nopause =
      run_cfg(*profile, 0.0, base_period, false, accesses, seed);
  t.add_row({"0.00", std::to_string(base_period), "no",
             TextTable::fmt(nopause.avg_write_ns(), 1),
             TextTable::fmt(nopause.avg_read_ns(), 1),
             std::to_string(nopause.refresh_commands),
             std::to_string(nopause.refresh_rows),
             std::to_string(nopause.stats.counters.get("ctrl.refresh_pauses"))});
  std::printf("%s", t.to_text().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return tuning_main(KeyValueConfig::from_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "refresh_tuning: %s\n", e.what());
    return 1;
  }
}
