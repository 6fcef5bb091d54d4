// Section 1/2 comparison: latency-aware coding baselines vs WOM-codes.
//
// Flip-N-Write (Cho & Lee) bounds programmed bits at half the line, which
// helps energy/endurance but rarely eliminates every SET pulse, so write
// LATENCY stays SET-bound — the paper's motivation for WOM-codes. This
// bench compares conventional PCM, Flip-N-Write (with 0% and an optimistic
// 10% SET-free write fraction), and WOM-code PCM on latency and on the
// first-order energy model.
//
// Usage: ablation_flip_n_write [accesses=N] [seed=S]

#include <cstdint>
#include <cstdio>
#include <exception>

#include "common/config.h"
#include "sim/experiment.h"
#include "stats/table.h"

using namespace wompcm;

namespace {

int fnw_main(const KeyValueConfig& args) {
  const auto accesses = static_cast<std::uint64_t>(
      args.get_int_in("accesses", 80000, 1, INT64_MAX));
  const auto seed =
      static_cast<std::uint64_t>(args.get_int_in("seed", 42, 0, INT64_MAX));

  const char* benches[] = {"401.bzip2", "464.h264ref", "FFT.mi"};

  std::printf("Coding-scheme ablation: Flip-N-Write vs WOM-code PCM\n\n");
  TextTable t({"benchmark", "arch", "write norm", "read norm",
               "write energy/access pJ", "overhead"});
  for (const char* name : benches) {
    const auto p = *find_profile(name);
    SimConfig base = paper_config();
    base.arch.composition = arch_preset("pcm");
    const SimResult rb = run({base, TraceSpec::profile(p, accesses),
                              RunOptions::with_seed(seed)});

    struct Variant {
      const char* label;
      const char* preset;
      double fnw_fast;
    };
    const Variant variants[] = {
        {"pcm", "pcm", 0.0},
        {"flip-n-write", "fnw", 0.0},
        {"flip-n-write (10% fast)", "fnw", 0.10},
        {"wom-pcm", "wom", 0.0},
    };
    for (const Variant& v : variants) {
      SimConfig cfg = paper_config();
      cfg.arch.composition = arch_preset(v.preset);
      cfg.arch.fnw_fast_fraction = v.fnw_fast;
      const SimResult res = run({cfg, TraceSpec::profile(p, accesses),
                                 RunOptions::with_seed(seed)});
      const double writes = static_cast<double>(res.injected_writes);
      t.add_row({name, v.label,
                 TextTable::fmt(res.avg_write_ns() / rb.avg_write_ns()),
                 TextTable::fmt(res.avg_read_ns() / rb.avg_read_ns()),
                 TextTable::fmt(writes > 0 ? res.energy_write_pj / writes : 0,
                                0),
                 TextTable::fmt(res.capacity_overhead * 100.0, 1) + "%"});
    }
  }
  std::printf("%s\n", t.to_text().c_str());
  std::printf(
      "expected shape: Flip-N-Write halves write energy but barely moves\n"
      "latency; WOM-code PCM cuts latency at 50%% capacity overhead\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return fnw_main(KeyValueConfig::from_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ablation_flip_n_write: %s\n", e.what());
    return 1;
  }
}
