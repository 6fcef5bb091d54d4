// Fig. 7: WCPCM write latency for 4/8/16/32 banks per rank, normalized per
// benchmark to the 4-banks/rank organization.
//
// Known discrepancy (see EXPERIMENTS.md): the paper reports write latency
// decreasing with banks/rank ("better parallelism"). In this controller the
// WOM-cache decouples demand writes from main-memory bank parallelism, so
// the write series comes out flat (cache-conflict growth and read-side
// parallelism roughly cancel); the read column is included to show where
// the bank-parallelism benefit does appear.
//
// Usage: fig7_wcpcm_banks [accesses=N] [seed=S] [csv=1]

#include <cstdint>
#include <cstdio>
#include <exception>

#include "womcode.h"

using namespace wompcm;

namespace {
constexpr unsigned kBankSweep[] = {4, 8, 16, 32};
}

namespace {

int fig7_main(const KeyValueConfig& args) {
  const auto accesses = static_cast<std::uint64_t>(
      args.get_int_in("accesses", 80000, 1, INT64_MAX));
  const auto seed =
      static_cast<std::uint64_t>(args.get_int_in("seed", 42, 0, INT64_MAX));
  const bool csv = args.get_bool_or("csv", false);  // checked before the run

  std::printf(
      "Fig. 7: WCPCM write latency vs banks/rank, normalized to 4 banks\n"
      "(%llu accesses/benchmark, seed %llu; read latency alongside)\n\n",
      static_cast<unsigned long long>(accesses),
      static_cast<unsigned long long>(seed));

  TextTable t({"benchmark", "w 4", "w 8", "w 16", "w 32", "r 4", "r 8",
               "r 16", "r 32"});
  std::vector<double> wavg(4, 0.0), ravg(4, 0.0);
  for (const WorkloadProfile& p : benchmark_profiles()) {
    double w[4], r[4];
    for (std::size_t bi = 0; bi < 4; ++bi) {
      SimConfig cfg = paper_config();
      cfg.geom.banks_per_rank = kBankSweep[bi];
      cfg.geom.rows_per_bank = 32768 * 32 / kBankSweep[bi];
      cfg.arch.composition = arch_preset("wcpcm");
      const SimResult res =
          run({cfg, TraceSpec::profile(p, accesses), RunOptions::with_seed(seed)});
      w[bi] = res.avg_write_ns();
      r[bi] = res.avg_read_ns();
    }
    std::vector<std::string> row{p.name};
    for (std::size_t bi = 0; bi < 4; ++bi) {
      const double v = w[bi] / w[0];
      wavg[bi] += v;
      row.push_back(TextTable::fmt(v));
    }
    for (std::size_t bi = 0; bi < 4; ++bi) {
      const double v = r[bi] / r[0];
      ravg[bi] += v;
      row.push_back(TextTable::fmt(v));
    }
    t.add_row(std::move(row));
  }
  const double n = static_cast<double>(benchmark_profiles().size());
  std::vector<std::string> row{"average"};
  for (std::size_t bi = 0; bi < 4; ++bi) row.push_back(TextTable::fmt(wavg[bi] / n));
  for (std::size_t bi = 0; bi < 4; ++bi) row.push_back(TextTable::fmt(ravg[bi] / n));
  t.add_row(std::move(row));
  std::printf("%s\n", t.to_text().c_str());
  std::printf(
      "expected shape (paper): write latency decreases as banks/rank grows\n");
  if (csv) std::printf("\n%s", t.to_csv().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return fig7_main(KeyValueConfig::from_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fig7_wcpcm_banks: %s\n", e.what());
    return 1;
  }
}
