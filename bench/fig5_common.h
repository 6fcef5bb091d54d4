// Shared harness for Figs. 5(a) and 5(b): the 20-benchmark x 4-architecture
// sweep with per-benchmark normalization against the conventional-PCM
// baseline, plus the paper's "average" bar.
#pragma once

#include <cstdio>
#include <functional>

#include "womcode.h"

namespace wompcm::bench {

inline int run_fig5(int argc, char** argv, const char* title,
                    const char* metric_name, double paper_avg_wom,
                    double paper_avg_refresh, double paper_avg_wcpcm,
                    const std::function<double(const SimResult&)>& metric) {
  const KeyValueConfig args = KeyValueConfig::from_args(argc, argv);
  const auto accesses = static_cast<std::uint64_t>(
      args.get_int_in("accesses", 100000, 1, INT64_MAX));
  const auto seed =
      static_cast<std::uint64_t>(args.get_int_in("seed", 42, 0, INT64_MAX));
  const bool csv = args.get_bool_or("csv", false);  // checked before the run
  // jobs=J: sweep workers (0 = all hardware threads, 1 = serial). The cell
  // results are bit-identical regardless of J.
  const auto jobs = static_cast<unsigned>(args.get_int_in("jobs", 0, 0, 256));

  std::printf("%s\n(normalized %s; lower is better; %llu accesses/benchmark, "
              "seed %llu)\n\n",
              title, metric_name, static_cast<unsigned long long>(accesses),
              static_cast<unsigned long long>(seed));

  RunOptions opts = RunOptions::with_seed(seed);
  opts.jobs = ParallelPolicy::with_jobs(jobs);
  const RunRequest base{paper_config(),
                        TraceSpec::profile(WorkloadProfile{}, accesses), opts};
  const auto rows =
      run_sweep(base, paper_architectures(), benchmark_profiles());
  const auto norm = normalize(rows, metric);

  TextTable t({"benchmark", "pcm", "wom-pcm", "pcm-refresh", "wcpcm"});
  for (std::size_t i = 0; i < rows.size(); ++i) {
    t.add_row({rows[i].benchmark, TextTable::fmt(norm[i][0]),
               TextTable::fmt(norm[i][1]), TextTable::fmt(norm[i][2]),
               TextTable::fmt(norm[i][3])});
  }
  t.add_row({"average", TextTable::fmt(column_mean(norm, 0)),
             TextTable::fmt(column_mean(norm, 1)),
             TextTable::fmt(column_mean(norm, 2)),
             TextTable::fmt(column_mean(norm, 3))});
  std::printf("%s\n", t.to_text().c_str());
  std::printf("paper averages: wom-pcm %.3f, pcm-refresh %.3f, wcpcm %.3f\n",
              paper_avg_wom, paper_avg_refresh, paper_avg_wcpcm);
  if (csv) {
    std::printf("\n%s", t.to_csv().c_str());
  }
  return 0;
}

}  // namespace wompcm::bench
