// Energy breakdown ablation.
//
// The paper notes only that one PCM-refresh costs one row read plus one row
// write; the WoM-SET line of work [34] attacks PCM *energy* with WOM codes.
// This bench breaks total array energy into read/write/refresh components
// per architecture: WOM codes trade extra programmed bits (1.5x codewords)
// for fewer SET pulses, and PCM-refresh converts demand SETs into
// background refresh energy.
//
// Usage: ablation_energy [accesses=N] [seed=S]

#include <cstdint>
#include <cstdio>
#include <exception>

#include "common/config.h"
#include "sim/experiment.h"
#include "stats/table.h"

using namespace wompcm;

namespace {

int energy_main(const KeyValueConfig& args) {
  const auto accesses = static_cast<std::uint64_t>(
      args.get_int_in("accesses", 80000, 1, INT64_MAX));
  const auto seed =
      static_cast<std::uint64_t>(args.get_int_in("seed", 42, 0, INT64_MAX));

  std::printf("Energy breakdown per architecture (pJ per demand access; "
              "Lee et al. pulse energies)\n\n");
  const char* const presets[] = {"pcm", "fnw", "wom", "refresh", "wcpcm"};
  for (const char* bench : {"464.h264ref", "ocean"}) {
    const auto p = *find_profile(bench);
    std::printf("%s\n", bench);
    TextTable t({"architecture", "read pJ/acc", "write pJ/acc",
                 "refresh pJ/acc", "total pJ/acc", "write norm"});
    double base_w = 0;
    for (const char* preset : presets) {
      SimConfig cfg = paper_config();
      cfg.arch.composition = arch_preset(preset);
      const SimResult r = run({cfg, TraceSpec::profile(p, accesses),
                               RunOptions::with_seed(seed)});
      const double n =
          static_cast<double>(r.injected_reads + r.injected_writes);
      if (preset == presets[0]) base_w = r.avg_write_ns();
      const double total =
          r.energy_read_pj + r.energy_write_pj + r.energy_refresh_pj;
      t.add_row({r.arch_name, TextTable::fmt(r.energy_read_pj / n, 0),
                 TextTable::fmt(r.energy_write_pj / n, 0),
                 TextTable::fmt(r.energy_refresh_pj / n, 0),
                 TextTable::fmt(total / n, 0),
                 TextTable::fmt(r.avg_write_ns() / base_w)});
    }
    std::printf("%s\n", t.to_text().c_str());
  }
  std::printf(
      "expected shape: Flip-N-Write minimizes write energy but not latency;\n"
      "the WOM architectures pay ~1.5x codeword energy (plus refresh\n"
      "energy) for their latency wins — energy is WoM-SET's [34] problem,\n"
      "latency is this paper's\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return energy_main(KeyValueConfig::from_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ablation_energy: %s\n", e.what());
    return 1;
  }
}
