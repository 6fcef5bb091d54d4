// Composition ablation: the full {main coding} x {cache on/off} x
// {refresh on/off} cross-product that the policy decomposition opens up
// (DESIGN.md section 9). The five canonical designs are recovered as
// specific cells; the remaining cells are novel compositions the
// monolithic classes could not express -- notably fnw+WOM-cache,
// hidden-page+refresh+cache and symmetric+cache.
//
// Emits one row per valid composition with benchmark-averaged demand
// latencies, per-access write energy and the capacity overhead of the
// provisioned arrays.
//
// Usage: ablation_compositions [accesses=N] [seed=S]

#include <cstdint>
#include <cstdio>
#include <exception>

#include "common/config.h"
#include "sim/experiment.h"
#include "stats/table.h"

using namespace wompcm;

namespace {

int compositions_main(const KeyValueConfig& args) {
  const auto accesses = static_cast<std::uint64_t>(
      args.get_int_in("accesses", 40000, 1, INT64_MAX));
  const auto seed =
      static_cast<std::uint64_t>(args.get_int_in("seed", 42, 0, INT64_MAX));

  const std::vector<ArchConfig> archs = composition_sweep(
      {CodingKind::kRaw, CodingKind::kWomWide, CodingKind::kWomHidden,
       CodingKind::kFlipNWrite, CodingKind::kSymmetric},
      {false, true}, {RefreshKind::kNone, RefreshKind::kRat});
  const std::vector<WorkloadProfile> profiles = {*find_profile("401.bzip2"),
                                                 *find_profile("ocean")};

  RunRequest req;
  req.config = paper_config();
  req.trace = TraceSpec::profile(WorkloadProfile{}, accesses);
  req.options.seed = seed;
  const auto rows = run_sweep(req, archs, profiles);

  std::printf("Composition ablation: %zu valid cells of the "
              "{main} x {cache} x {refresh} cross-product\n"
              "(benchmark average over 401.bzip2 and ocean, %llu accesses "
              "each)\n\n",
              archs.size(), static_cast<unsigned long long>(accesses));
  TextTable t({"main", "cache", "refresh", "arch", "write ns", "read ns",
               "wr pJ/acc", "cap ovh"});
  for (std::size_t a = 0; a < archs.size(); ++a) {
    const Composition& c = archs[a].composition;
    double w = 0.0, r = 0.0, e = 0.0;
    for (const SweepRow& row : rows) {
      const SimResult& res = row.results.at(a);
      w += res.avg_write_ns();
      r += res.avg_read_ns();
      e += res.energy_write_pj /
           static_cast<double>(res.injected_reads + res.injected_writes);
    }
    const double n = static_cast<double>(rows.size());
    t.add_row({to_string(c.main_coding),
               c.cache_enabled ? to_string(c.cache_coding) : "off",
               to_string(c.refresh), rows[0].results.at(a).arch_name,
               TextTable::fmt(w / n, 1), TextTable::fmt(r / n, 1),
               TextTable::fmt(e / n, 1),
               TextTable::fmt(rows[0].results.at(a).capacity_overhead, 3)});
  }
  std::printf("%s\n", t.to_text().c_str());
  std::printf(
      "expected shape: WOM main codings cut write latency until the rewrite\n"
      "limit bites; a WOM cache recovers most of that at 1/banks capacity\n"
      "cost; refresh keeps WOM regions in the fast-write regime; the\n"
      "symmetric+cache cell isolates the cache protocol's own overhead\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return compositions_main(KeyValueConfig::from_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ablation_compositions: %s\n", e.what());
    return 1;
  }
}
