// Section 3.1 ablation: wide-column vs hidden-page WOM-code PCM.
//
// Both organizations provision the 1.5x coded footprint. Wide-column widens
// the array and programs the whole codeword in one operation; hidden-page
// keeps standard arrays but stores the upper half-codeword in a controller-
// reserved hidden row, costing a dependent second row access per read and
// write. The paper positions wide-column as the performance option and
// hidden-page as the flexibility option; this bench quantifies the gap.
//
// Also sweeps the scheduling policy (FCFS vs read-priority) as a secondary
// ablation of the controller substrate.
//
// Usage: ablation_organization [accesses=N] [seed=S]

#include <cstdint>
#include <cstdio>
#include <exception>

#include "common/config.h"
#include "sim/experiment.h"
#include "stats/table.h"

using namespace wompcm;

namespace {

int organization_main(const KeyValueConfig& args) {
  const auto accesses = static_cast<std::uint64_t>(
      args.get_int_in("accesses", 80000, 1, INT64_MAX));
  const auto seed =
      static_cast<std::uint64_t>(args.get_int_in("seed", 42, 0, INT64_MAX));

  const char* benches[] = {"400.perlbench", "464.h264ref", "qsort", "ocean"};

  std::printf("Organization ablation: wide-column vs hidden-page (WOM-code "
              "PCM, normalized to conventional PCM)\n\n");
  TextTable t({"benchmark", "wide w", "hidden w", "wide r", "hidden r"});
  for (const char* name : benches) {
    const auto p = *find_profile(name);
    SimConfig base = paper_config();
    base.arch.composition = arch_preset("pcm");
    const SimResult rb = run({base, TraceSpec::profile(p, accesses),
                              RunOptions::with_seed(seed)});

    double w[2], r[2];
    const CodingKind codings[] = {CodingKind::kWomWide,
                                  CodingKind::kWomHidden};
    for (int i = 0; i < 2; ++i) {
      SimConfig cfg = paper_config();
      cfg.arch.composition = arch_preset("wom");
      cfg.arch.composition.main_coding = codings[i];
      const SimResult res = run({cfg, TraceSpec::profile(p, accesses),
                                 RunOptions::with_seed(seed)});
      w[i] = res.avg_write_ns() / rb.avg_write_ns();
      r[i] = res.avg_read_ns() / rb.avg_read_ns();
    }
    t.add_row({name, TextTable::fmt(w[0]), TextTable::fmt(w[1]),
               TextTable::fmt(r[0]), TextTable::fmt(r[1])});
  }
  std::printf("%s\n", t.to_text().c_str());

  std::printf("Scheduler ablation: FCFS vs read-priority (conventional PCM, "
              "absolute latencies)\n\n");
  TextTable t2({"benchmark", "fcfs w ns", "rdprio w ns", "fcfs r ns",
                "rdprio r ns"});
  for (const char* name : benches) {
    const auto p = *find_profile(name);
    double w[2], r[2];
    const SchedulingPolicy pol[] = {SchedulingPolicy::kFcfs,
                                    SchedulingPolicy::kReadPriority};
    for (int i = 0; i < 2; ++i) {
      SimConfig cfg = paper_config();
      cfg.sched.policy = pol[i];
      const SimResult res = run({cfg, TraceSpec::profile(p, accesses),
                                 RunOptions::with_seed(seed)});
      w[i] = res.avg_write_ns();
      r[i] = res.avg_read_ns();
    }
    t2.add_row({name, TextTable::fmt(w[0], 1), TextTable::fmt(w[1], 1),
                TextTable::fmt(r[0], 1), TextTable::fmt(r[1], 1)});
  }
  std::printf("%s\n", t2.to_text().c_str());
  std::printf(
      "expected shape: hidden-page trails wide-column on both metrics;\n"
      "read-priority trades write latency for read latency\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return organization_main(KeyValueConfig::from_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ablation_organization: %s\n", e.what());
    return 1;
  }
}
