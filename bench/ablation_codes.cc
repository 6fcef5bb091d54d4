// Code-family ablation: the frontier the sectioned codec layer opens up.
//
// One row per (coding kind, code) cell over the enlarged code matrix —
// the classic symbol codes (rs23, marker) behind wom-wide, the polar
// block family behind main.coding=polar, and the time-space constrained
// family behind main.coding=ts-constrained. Each row pairs the static
// code parameters (k/n per section, write budget t, capacity overhead,
// wear bound) with measured end-to-end behavior: demand latencies, write
// energy per access, and the headline endurance metric — RESET-only
// rewrites per alpha-write (counters writes.fast / writes.alpha). A
// higher ratio means more writes land in the cheap in-budget regime
// before the region pays a full re-initialization.
//
// Usage: ablation_codes [accesses=N] [seed=S]

#include <cstdint>
#include <cstdio>
#include <exception>

#include "common/config.h"
#include "sim/experiment.h"
#include "stats/table.h"
#include "wom/registry.h"

using namespace wompcm;

namespace {

struct Cell {
  const char* label;
  CodingKind main;
  const char* code;  // resolved per-region; "" = family default
};

ArchConfig make_arch(const Cell& cell) {
  ArchConfig a;
  a.composition = validate_composition(
      {cell.main, false, CodingKind::kWomWide, RefreshKind::kNone});
  // The legacy key feeds the classic kinds; the per-region override feeds
  // the sectioned families (either path resolves to the same RegionCode).
  a.code = cell.code;
  a.main_code = cell.code;
  return a;
}

int codes_main(const KeyValueConfig& args) {
  const auto accesses = static_cast<std::uint64_t>(
      args.get_int_in("accesses", 40000, 1, INT64_MAX));
  const auto seed =
      static_cast<std::uint64_t>(args.get_int_in("seed", 42, 0, INT64_MAX));

  // The frontier: classic two-write rs23 (the paper's cell), a deeper
  // tabular marker code, the polar block family, and the time-space
  // constrained replica family. All run main-memory-only with refresh off
  // so the rewrite budget — not refresh or cache effects — drives the
  // comparison. (With RAT refresh on, rows that hit their budget are
  // restored in the background, which flattens exactly the alpha-write
  // differences this ablation measures.)
  const Cell cells[] = {
      {"rs23 (paper)", CodingKind::kWomWide, "rs23-inv"},
      {"marker t=4", CodingKind::kWomWide, "marker-k2t4-inv"},
      {"polar m=7", CodingKind::kPolar, "polar-m7-inv"},
      {"tsc rs23x4", CodingKind::kTsConstrained, "tsc-rs23x4-inv"},
  };

  std::vector<ArchConfig> archs;
  for (const Cell& cell : cells) archs.push_back(make_arch(cell));
  const std::vector<WorkloadProfile> profiles = {*find_profile("401.bzip2"),
                                                 *find_profile("ocean")};

  RunRequest req;
  req.config = paper_config();
  req.trace = TraceSpec::profile(WorkloadProfile{}, accesses);
  req.options.seed = seed;
  const auto rows = run_sweep(req, archs, profiles);

  std::printf("Code-family ablation: sectioned codec cells, main memory "
              "only, refresh off\n(benchmark average over 401.bzip2 and "
              "ocean, %llu accesses each)\n\n",
              static_cast<unsigned long long>(accesses));
  TextTable t({"cell", "code", "k/n", "t", "ovh", "wear", "write ns",
               "read ns", "wr pJ/acc", "fast/alpha"});
  for (std::size_t a = 0; a < archs.size(); ++a) {
    const CodeInfo info = code_info(cells[a].code);
    double w = 0.0, r = 0.0, e = 0.0, fast = 0.0, alpha = 0.0;
    for (const SweepRow& row : rows) {
      const SimResult& res = row.results.at(a);
      w += res.avg_write_ns();
      r += res.avg_read_ns();
      e += res.energy_write_pj /
           static_cast<double>(res.injected_reads + res.injected_writes);
      fast += static_cast<double>(res.stats.counters.get("writes.fast"));
      alpha += static_cast<double>(res.stats.counters.get("writes.alpha"));
    }
    const double n = static_cast<double>(rows.size());
    t.add_row({cells[a].label, info.name,
               std::to_string(info.data_bits) + "/" +
                   std::to_string(info.wits),
               std::to_string(info.max_writes), TextTable::fmt(info.overhead, 2),
               TextTable::fmt(info.wear_bound, 2), TextTable::fmt(w / n, 1),
               TextTable::fmt(r / n, 1), TextTable::fmt(e / n, 1),
               TextTable::fmt(alpha > 0.0 ? fast / alpha : 0.0, 2)});
  }
  std::printf("%s\n", t.to_text().c_str());
  std::printf(
      "expected shape: fast/alpha climbs monotonically with the write\n"
      "budget t and approaches t - 1 as rewrites dominate first-touch\n"
      "(cold) alphas; rs23 (t = 2) pays an alpha for every in-budget\n"
      "rewrite while the t = 8 families take up to seven, at higher\n"
      "capacity overhead; tsc additionally bounds per-write cell wear to\n"
      "1/4, which the fault model sees as proportionally slower wear\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return codes_main(KeyValueConfig::from_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ablation_codes: %s\n", e.what());
    return 1;
  }
}
