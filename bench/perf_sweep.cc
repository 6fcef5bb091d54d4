// Perf harness for the sweep engine: times the serial and parallel
// arch-sweep on the same cells, verifies the results are bit-identical,
// and reports cells/sec, wall-clock speedup, and the per-phase breakdown
// (trace-gen / controller / codec) summed over all cells.
//
// Arguments: accesses=N (default 5000), seed=S (42), jobs=J (0 = all
// hardware threads), profiles=P (8, capped at 20), out=FILE
// (BENCH_sweep.json; the machine-readable mirror of the stdout report).
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "bench_json.h"
#include "common/config.h"
#include "common/perf.h"
#include "common/thread_pool.h"
#include "sim/experiment.h"

namespace {

using namespace wompcm;

SimResult::PhaseCounters sum_phases(const std::vector<SweepRow>& rows) {
  SimResult::PhaseCounters total;
  for (const SweepRow& row : rows) {
    for (const SimResult& r : row.results) {
      total.trace_gen_ns += r.phases.trace_gen_ns;
      total.controller_ns += r.phases.controller_ns;
      total.codec_ns += r.phases.codec_ns;
      total.total_ns += r.phases.total_ns;
    }
  }
  return total;
}

int sweep_main(const KeyValueConfig& args) {
  const auto accesses = static_cast<std::uint64_t>(
      args.get_int_in("accesses", 5000, 1, INT64_MAX));
  const auto seed =
      static_cast<std::uint64_t>(args.get_int_in("seed", 42, 0, INT64_MAX));
  const auto jobs = static_cast<unsigned>(args.get_int_in("jobs", 0, 0, 256));
  const auto nprofiles =
      static_cast<std::size_t>(args.get_int_in("profiles", 8, 1, INT64_MAX));
  const std::string out_path = args.get_string_or("out", "BENCH_sweep.json");
  // Free-form provenance string recorded in the JSON (e.g. whether the
  // run was interleaved A/B against a baseline binary).
  const std::string note = args.get_string_or("note", "");

  const auto archs = paper_architectures();
  std::vector<WorkloadProfile> profiles = benchmark_profiles();
  if (profiles.size() > nprofiles) profiles.resize(nprofiles);
  const std::size_t cells = archs.size() * profiles.size();

  const ParallelPolicy par = ParallelPolicy::with_jobs(jobs);
  const unsigned hw = ThreadPool::hardware_workers();
  const bool degraded = hw == 1;
  std::printf("perf_sweep: %zu archs x %zu profiles = %zu cells, "
              "%llu accesses/cell, seed %llu, %u worker(s), "
              "%u hardware thread(s)\n",
              archs.size(), profiles.size(), cells,
              static_cast<unsigned long long>(accesses),
              static_cast<unsigned long long>(seed), par.resolved_jobs(), hw);
  if (degraded) {
    std::printf("WARNING: single hardware thread — the parallel sweep "
                "cannot beat serial here; speedup figures measure pool "
                "overhead, not parallelism (degraded environment)\n");
  }
  std::printf("\n");

  RunRequest req;
  req.config = paper_config();
  req.trace = TraceSpec::profile(WorkloadProfile{}, accesses);
  req.options.seed = seed;

  const std::uint64_t t0 = perf::now_ns();
  req.options.jobs = ParallelPolicy::serial();
  const auto serial = run_sweep(req, archs, profiles);
  const std::uint64_t t1 = perf::now_ns();
  req.options.jobs = par;
  const auto parallel = run_sweep(req, archs, profiles);
  const std::uint64_t t2 = perf::now_ns();

  // Bit-identical check: every cell, every deterministic field.
  for (std::size_t i = 0; i < serial.size(); ++i) {
    for (std::size_t j = 0; j < serial[i].results.size(); ++j) {
      std::string why;
      if (!bench::same_result(serial[i].results[j], parallel[i].results[j],
                              &why)) {
        std::printf("MISMATCH at (%s, %s): %s differs\n",
                    serial[i].benchmark.c_str(),
                    serial[i].results[j].arch_name.c_str(), why.c_str());
        return 1;
      }
    }
  }

  const double serial_s = static_cast<double>(t1 - t0) * 1e-9;
  const double parallel_s = static_cast<double>(t2 - t1) * 1e-9;
  std::printf("serial:   %8.3f s  (%6.2f cells/s)\n", serial_s,
              static_cast<double>(cells) / serial_s);
  std::printf("parallel: %8.3f s  (%6.2f cells/s)\n", parallel_s,
              static_cast<double>(cells) / parallel_s);
  std::printf("speedup:  %8.2fx  (results bit-identical)\n\n",
              serial_s / parallel_s);

  const auto ph = sum_phases(serial);
  const double tot = static_cast<double>(ph.total_ns);
  if (tot > 0.0) {
    std::printf("serial phase breakdown (CPU time over all cells):\n");
    std::printf("  trace-gen:  %6.1f%%\n",
                100.0 * static_cast<double>(ph.trace_gen_ns) / tot);
    std::printf("  controller: %6.1f%%\n",
                100.0 * static_cast<double>(ph.controller_ns) / tot);
    std::printf("  codec:      %6.1f%%\n",
                100.0 * static_cast<double>(ph.codec_ns) / tot);
  }

  // Machine-readable mirror of the report above (schema in README.md),
  // feeding the BENCH_*.json trajectory alongside perf_trace.
  bench::BenchJson json(out_path, "perf_sweep");
  if (!json.valid()) return 1;
  json.field_u64("accesses", accesses);
  json.field_u64("seed", seed);
  json.field_u64("archs", archs.size());
  json.field_u64("profiles", profiles.size());
  json.field_u64("cells", cells);
  json.field_u64("jobs", par.resolved_jobs());
  json.environment(note);
  std::FILE* f = json.file();
  std::fprintf(f, "  \"serial\": {\"wall_s\": %.6f, \"cells_per_sec\": %.3f},\n",
               serial_s, static_cast<double>(cells) / serial_s);
  std::fprintf(f,
               "  \"parallel\": {\"wall_s\": %.6f, \"cells_per_sec\": %.3f},\n",
               parallel_s, static_cast<double>(cells) / parallel_s);
  std::fprintf(f, "  \"speedup\": %.3f,\n", serial_s / parallel_s);
  std::fprintf(f, "  \"bit_identical\": true,\n");
  std::fprintf(f, "  \"serial_phases_ns\": ");
  json.phases_object(ph);
  std::fprintf(f, "\n}\n");
  std::printf("\nwrote %s\n", out_path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return sweep_main(KeyValueConfig::from_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perf_sweep: %s\n", e.what());
    return 1;
  }
}
