// Fig. 6: WOM-cache hit rate in WCPCM for 4/8/16/32 banks per rank.
//
// The WOM-cache tag is the bank address, so banks/rank sets the number of
// rows competing for each cache entry: more banks per rank, lower hit rate.
// The sweep holds total capacity fixed (fewer banks per rank means larger
// banks, and the per-rank cache array — sized like one bank — grows
// accordingly), matching the paper's overhead numbers (37.5% at 4 banks
// down to 4.7% at 32).
//
// Usage: fig6_womcache_hitrate [accesses=N] [seed=S] [csv=1]

#include <cstdint>
#include <cstdio>
#include <exception>

#include "womcode.h"

using namespace wompcm;

namespace {

constexpr unsigned kBankSweep[] = {4, 8, 16, 32};

double wcpcm_write_hit_rate(const SimResult& r) {
  const double h =
      static_cast<double>(r.stats.counters.get("wcpcm.write_hits"));
  const double m =
      static_cast<double>(r.stats.counters.get("wcpcm.write_misses"));
  return h + m == 0 ? 0.0 : h / (h + m);
}

int fig6_main(const KeyValueConfig& args) {
  const auto accesses = static_cast<std::uint64_t>(
      args.get_int_in("accesses", 80000, 1, INT64_MAX));
  const auto seed =
      static_cast<std::uint64_t>(args.get_int_in("seed", 42, 0, INT64_MAX));
  const bool csv = args.get_bool_or("csv", false);  // checked before the run

  std::printf(
      "Fig. 6: WOM-cache (write) hit rate in WCPCM vs banks/rank\n"
      "(%llu accesses/benchmark, seed %llu)\n\n",
      static_cast<unsigned long long>(accesses),
      static_cast<unsigned long long>(seed));

  TextTable t({"benchmark", "4 banks", "8 banks", "16 banks", "32 banks"});
  std::vector<double> avg(4, 0.0);
  for (const WorkloadProfile& p : benchmark_profiles()) {
    std::vector<std::string> row{p.name};
    for (std::size_t bi = 0; bi < 4; ++bi) {
      SimConfig cfg = paper_config();
      cfg.geom.banks_per_rank = kBankSweep[bi];
      cfg.geom.rows_per_bank = 32768 * 32 / kBankSweep[bi];
      cfg.arch.composition = arch_preset("wcpcm");
      const SimResult r =
          run({cfg, TraceSpec::profile(p, accesses), RunOptions::with_seed(seed)});
      const double hit = wcpcm_write_hit_rate(r);
      avg[bi] += hit;
      row.push_back(TextTable::fmt(hit));
    }
    t.add_row(std::move(row));
  }
  const double n = static_cast<double>(benchmark_profiles().size());
  t.add_row({"average", TextTable::fmt(avg[0] / n), TextTable::fmt(avg[1] / n),
             TextTable::fmt(avg[2] / n), TextTable::fmt(avg[3] / n)});
  std::printf("%s\n", t.to_text().c_str());
  std::printf(
      "expected shape (paper): hit rate decreases as banks/rank grows\n");
  if (csv) std::printf("\n%s", t.to_csv().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return fig6_main(KeyValueConfig::from_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fig6_womcache_hitrate: %s\n", e.what());
    return 1;
  }
}
