// Section 3.2 analysis: the rewrite-limit bound on WOM-code PCM speedup.
//
// For a k-rewrite code, t consecutive writes to a line cost (t-1)L + SL
// versus tSL without the code, bounding the improvement factor at
// (t-1+S)/(tS) with S = SET/RESET slowdown (150/40 = 3.75 here). A higher
// rewrite limit raises the bound but costs more wits per bit. This bench
// sweeps codes with t = 1, 2, 3, 4 on WOM-code PCM (no refresh) and
// compares the measured normalized write latency against the bound, next
// to each code's capacity overhead.
//
// Usage: ablation_rewrite_bound [accesses=N] [seed=S]

#include <cstdint>
#include <cstdio>
#include <exception>

#include "common/config.h"
#include "sim/experiment.h"
#include "stats/table.h"
#include "wom/registry.h"

using namespace wompcm;

namespace {

int rewrite_bound_main(const KeyValueConfig& args) {
  const auto accesses = static_cast<std::uint64_t>(
      args.get_int_in("accesses", 80000, 1, INT64_MAX));
  const auto seed =
      static_cast<std::uint64_t>(args.get_int_in("seed", 42, 0, INT64_MAX));

  const PcmTiming timing;
  const double S = static_cast<double>(timing.set_ns) /
                   static_cast<double>(timing.reset_ns);
  std::printf(
      "Rewrite-limit bound ablation (S = %.2f): (t-1+S)/(tS) vs measured\n"
      "WOM-code PCM, benchmark 464.h264ref + 401.bzip2 mean, %llu accesses\n\n",
      S, static_cast<unsigned long long>(accesses));

  const char* codes[] = {"marker-k2t1-inv", "rs23-inv", "parity-t3-inv",
                         "marker-k2t4-inv"};
  const auto bench1 = *find_profile("464.h264ref");
  const auto bench2 = *find_profile("401.bzip2");

  TextTable t({"code", "t", "overhead", "bound (t-1+S)/(tS)",
               "measured write norm", "measured read norm"});
  for (const char* name : codes) {
    const WomCodePtr code = make_code(name);
    const unsigned tw = code->max_writes();
    const double bound = (static_cast<double>(tw) - 1.0 + S) /
                         (static_cast<double>(tw) * S);

    double wnorm = 0.0, rnorm = 0.0;
    for (const WorkloadProfile* p : {&bench1, &bench2}) {
      SimConfig base = paper_config();
      base.arch.composition = arch_preset("pcm");
      const SimResult rb = run({base, TraceSpec::profile(*p, accesses),
                                RunOptions::with_seed(seed)});

      SimConfig cfg = paper_config();
      cfg.arch.composition = arch_preset("wom");
      cfg.arch.code = name;
      const SimResult rw = run({cfg, TraceSpec::profile(*p, accesses),
                                RunOptions::with_seed(seed)});
      wnorm += rw.avg_write_ns() / rb.avg_write_ns() / 2.0;
      rnorm += rw.avg_read_ns() / rb.avg_read_ns() / 2.0;
    }
    t.add_row({name, std::to_string(tw),
               TextTable::fmt(code->overhead() * 100.0, 1) + "%",
               TextTable::fmt(bound), TextTable::fmt(wnorm),
               TextTable::fmt(rnorm)});
  }
  std::printf("%s\n", t.to_text().c_str());
  std::printf(
      "expected shape: higher t lowers both the bound and the measured\n"
      "latency, at rapidly growing capacity overhead (the paper's argument\n"
      "for PCM-refresh instead of bigger codes)\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return rewrite_bound_main(KeyValueConfig::from_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ablation_rewrite_bound: %s\n", e.what());
    return 1;
  }
}
