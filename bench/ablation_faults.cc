// Fault-injection ablation: graceful degradation as the array ages.
//
// Sweeps fault.initial_wear (how far through its life the array starts)
// with a deliberately low endurance median, and reports how each paper
// architecture degrades: WOM fast-path writes demoted to alpha-writes on
// stuck bits, write-verify retries, dead rows retired onto spares, and —
// for WCPCM — dead WOM-cache rows invalidated and bypassed to main memory.
// The latency column is normalized to the same architecture with faults
// off, so the number is the price of degradation alone.
//
// All fault draws are a pure function of fault.seed (see pcm/fault_model.h),
// so every cell of this table is reproducible.
//
// Usage: ablation_faults [benchmark=NAME] [accesses=N] [seed=S]
//        [fault.seed=F] [fault.endurance=E] [fault.sigma=SG]
//        [fault.spare_rows=R]

#include <cstdint>
#include <cstdio>
#include <exception>

#include "womcode.h"

using namespace wompcm;

namespace {

struct Variant {
  const char* label;
  const char* preset;
};

int faults_main(const KeyValueConfig& args) {
  const std::string bench = args.get_string_or("benchmark", "401.bzip2");
  const auto accesses = static_cast<std::uint64_t>(
      args.get_int_in("accesses", 60000, 1, INT64_MAX));
  const auto seed =
      static_cast<std::uint64_t>(args.get_int_in("seed", 42, 0, INT64_MAX));

  const auto profile = find_profile(bench);
  if (!profile) {
    std::printf("unknown benchmark %s\n", bench.c_str());
    return 1;
  }

  SimConfig base =
      apply_overrides(paper_config(), args,
                      /*harness_keys=*/{"benchmark", "accesses", "seed"});
  if (!args.has("fault.endurance")) base.fault.endurance = 400.0;
  if (!args.has("fault.sigma")) base.fault.sigma = 0.35;
  if (!args.has("fault.seed")) base.fault.seed = 7;
  if (!args.has("fault.spare_rows")) base.fault.spare_rows = 16;

  const Variant variants[] = {
      {"pcm", "pcm"},
      {"wom-pcm", "wom"},
      {"pcm-refresh", "refresh"},
      {"wcpcm", "wcpcm"},
  };

  std::printf(
      "Fault ablation on %s (%llu accesses; endurance median %.0f pulses,\n"
      "sigma %.2f, fault seed %llu, %u spare rows/bank)\n\n",
      bench.c_str(), static_cast<unsigned long long>(accesses),
      base.fault.endurance, base.fault.sigma,
      static_cast<unsigned long long>(base.fault.seed),
      base.fault.spare_rows);

  for (const double wear : {0.0, 0.5, 0.75, 0.9}) {
    std::printf("initial wear %.2f (array %.0f%% through its life)\n", wear,
                wear * 100.0);
    TextTable t({"architecture", "avg write ns", "w vs fault-free",
                 "injected", "retries", "demoted", "remapped", "dead rows",
                 "read disturbs"});
    for (const Variant& v : variants) {
      SimConfig cfg = base;
      cfg.arch.composition = arch_preset(v.preset);
      cfg.fault.enabled = false;
      const SimResult clean =
          run({cfg, TraceSpec::profile(*profile, accesses), RunOptions::with_seed(seed)});
      cfg.fault.enabled = true;
      cfg.fault.initial_wear = wear;
      const SimResult r =
          run({cfg, TraceSpec::profile(*profile, accesses), RunOptions::with_seed(seed)});
      t.add_row({v.label, TextTable::fmt(r.avg_write_ns(), 1),
                 TextTable::fmt(r.avg_write_ns() / clean.avg_write_ns()),
                 std::to_string(r.fault_injected),
                 std::to_string(r.fault_retries),
                 std::to_string(r.fault_demoted_writes),
                 std::to_string(r.fault_remapped_rows),
                 std::to_string(r.fault_dead_rows),
                 std::to_string(r.fault_read_disturbs)});
    }
    std::printf("%s\n", t.to_text().c_str());
  }
  std::printf(
      "expected shape: a fresh array (wear 0) only loses its lognormal weak\n"
      "tail; as initial wear approaches the endurance median the demotion\n"
      "and retry traffic climbs, and past it rows start dying fast enough\n"
      "to chew through the spares. The WOM architectures feel it first —\n"
      "their fast path depends on clean 0->1 programming — but degrade to\n"
      "conventional-PCM behaviour instead of failing.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return faults_main(KeyValueConfig::from_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ablation_faults: %s\n", e.what());
    return 1;
  }
}
