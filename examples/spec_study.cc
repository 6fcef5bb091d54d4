// Full evaluation sweep (the paper's Section 5 matrix): all 20 benchmarks
// across the four architectures, reporting absolute and normalized average
// write/read latencies plus WOM diagnostics.
//
// Usage: spec_study [accesses=N] [seed=S] [config=FILE] [key=value...]
//        [suite=spec-int|spec-fp|mibench|splash2] [jobs=J]
// Any SimConfig key (see sim/config_io.h) overrides the paper platform.
// jobs: sweep worker threads (0 = all hardware threads, 1 = serial); the
// results are identical either way.

#include <cstdint>
#include <cstdio>
#include <exception>

#include "womcode.h"

using namespace wompcm;

namespace {

int study_main(const KeyValueConfig& args) {
  const auto accesses = static_cast<std::uint64_t>(
      args.get_int_in("accesses", 120000, 1, INT64_MAX));
  const auto seed =
      static_cast<std::uint64_t>(args.get_int_in("seed", 42, 0, INT64_MAX));
  const auto jobs = static_cast<unsigned>(args.get_int_in("jobs", 0, 0, 256));
  const std::string suite = args.get_string_or("suite", "");

  const std::vector<WorkloadProfile> profiles =
      suite.empty() ? benchmark_profiles() : suite_profiles(suite);
  if (profiles.empty()) {
    std::printf("unknown suite '%s'\n", suite.c_str());
    return 1;
  }

  SimConfig base = paper_config();
  if (args.has("config")) {
    base = load_config_file(base, args.get_string_or("config", ""));
  }
  base = apply_overrides(base, args,
                         /*harness_keys=*/{"accesses", "seed", "suite",
                                           "config", "jobs"});

  auto archs = paper_architectures();
  for (auto& a : archs) {
    // The four paper designs, inheriting everything else (code, rat, seed,
    // ...) from the configured base.
    const Composition c = a.composition;
    a = base.arch;
    a.composition = c;
  }
  RunOptions opts = RunOptions::with_seed(seed);
  opts.jobs = ParallelPolicy::with_jobs(jobs);
  const RunRequest req{base, TraceSpec::profile(WorkloadProfile{}, accesses),
                       opts};
  const auto rows = run_sweep(req, archs, profiles);

  const auto wnorm =
      normalize(rows, [](const SimResult& r) { return r.avg_write_ns(); });
  const auto rnorm =
      normalize(rows, [](const SimResult& r) { return r.avg_read_ns(); });

  TextTable t({"benchmark", "base write ns", "wom w", "refresh w", "wcpcm w",
               "base read ns", "wom r", "refresh r", "wcpcm r", "alpha%",
               "whit%", "base p95w", "refresh p95w", "base util"});
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& row = rows[i];
    const auto& base = row.results[0];
    const auto& wom = row.results[1];
    const auto& wc = row.results[3];
    const double alpha =
        static_cast<double>(wom.stats.counters.get("writes.alpha"));
    const double fast =
        static_cast<double>(wom.stats.counters.get("writes.fast"));
    const double whits =
        static_cast<double>(wc.stats.counters.get("wcpcm.write_hits"));
    const double wmiss =
        static_cast<double>(wc.stats.counters.get("wcpcm.write_misses"));
    const auto& refresh = row.results[2];
    t.add_row({row.benchmark, TextTable::fmt(base.avg_write_ns(), 1),
               TextTable::fmt(wnorm[i][1]), TextTable::fmt(wnorm[i][2]),
               TextTable::fmt(wnorm[i][3]),
               TextTable::fmt(base.avg_read_ns(), 1),
               TextTable::fmt(rnorm[i][1]), TextTable::fmt(rnorm[i][2]),
               TextTable::fmt(rnorm[i][3]),
               TextTable::fmt(100.0 * alpha / (alpha + fast), 1),
               TextTable::fmt(100.0 * whits / (whits + wmiss), 1),
               std::to_string(base.stats.write_latency_hist.percentile(0.95)),
               std::to_string(
                   refresh.stats.write_latency_hist.percentile(0.95)),
               TextTable::fmt(base.max_bank_utilization(), 2)});
  }
  t.add_row({"AVERAGE", "", TextTable::fmt(column_mean(wnorm, 1)),
             TextTable::fmt(column_mean(wnorm, 2)),
             TextTable::fmt(column_mean(wnorm, 3)), "",
             TextTable::fmt(column_mean(rnorm, 1)),
             TextTable::fmt(column_mean(rnorm, 2)),
             TextTable::fmt(column_mean(rnorm, 3)), "", "", "", "", ""});
  std::printf("%s", t.to_text().c_str());
  std::printf(
      "\npaper averages: wom 0.799 w / 0.898 r; refresh 0.451 w / 0.521 r; "
      "wcpcm 0.528 w / 0.560 r\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return study_main(KeyValueConfig::from_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "spec_study: %s\n", e.what());
    return 1;
  }
}
