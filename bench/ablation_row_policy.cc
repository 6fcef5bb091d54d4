// Controller-substrate ablation: open-page vs closed-page row buffers.
//
// The WOM fast path and PCM-refresh shorten the program phase, but the
// activation (row read, 27 ns) is policy dependent: open-page amortizes it
// over row hits, closed-page pays it on every access. This bench shows how
// much of each architecture's gain survives a closed-page controller — a
// sanity check that the reproduction's conclusions do not hinge on the
// row-buffer policy.
//
// Usage: ablation_row_policy [accesses=N] [seed=S]

#include <cstdint>
#include <cstdio>
#include <exception>

#include "common/config.h"
#include "sim/experiment.h"
#include "stats/table.h"

using namespace wompcm;

namespace {

int row_policy_main(const KeyValueConfig& args) {
  const auto accesses = static_cast<std::uint64_t>(
      args.get_int_in("accesses", 80000, 1, INT64_MAX));
  const auto seed =
      static_cast<std::uint64_t>(args.get_int_in("seed", 42, 0, INT64_MAX));

  std::printf("Row-buffer policy ablation (normalized write latency within "
              "each policy)\n\n");
  TextTable t({"benchmark", "policy", "base write ns", "wom", "refresh",
               "wcpcm", "base read ns"});
  for (const char* name : {"400.perlbench", "464.h264ref", "ocean"}) {
    const auto p = *find_profile(name);
    for (const RowPolicy policy : {RowPolicy::kOpen, RowPolicy::kClosed}) {
      std::vector<SimResult> results;
      for (const ArchConfig& a : paper_architectures()) {
        SimConfig cfg = paper_config();
        cfg.arch = a;
        cfg.row_policy = policy;
        results.push_back(run({cfg, TraceSpec::profile(p, accesses),
                               RunOptions::with_seed(seed)}));
      }
      const double base_w = results[0].avg_write_ns();
      t.add_row({name, to_string(policy), TextTable::fmt(base_w, 1),
                 TextTable::fmt(results[1].avg_write_ns() / base_w),
                 TextTable::fmt(results[2].avg_write_ns() / base_w),
                 TextTable::fmt(results[3].avg_write_ns() / base_w),
                 TextTable::fmt(results[0].avg_read_ns(), 1)});
    }
  }
  std::printf("%s\n", t.to_text().c_str());
  std::printf(
      "expected shape: closed-page raises absolute latencies (every access\n"
      "activates) but the architecture ordering and relative gains hold\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return row_policy_main(KeyValueConfig::from_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ablation_row_policy: %s\n", e.what());
    return 1;
  }
}
