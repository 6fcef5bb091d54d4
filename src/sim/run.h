// Unified run-entry API.
//
// Every way of running the simulator — one benchmark, a recorded trace
// file, an architecture x benchmark sweep — goes through one value type:
//
//   RunRequest req;
//   req.config = paper_config();             // platform + architecture
//   req.trace = TraceSpec::benchmark("401.bzip2", 200'000);
//   req.options.seed = 42;                   // + jobs
//   SimResult r = run(req);
//
// The request is a plain value: it can be copied, stored, and replayed —
// two runs of an identical request produce identical SimResults. run()
// itself is a thin client of SimService (sim/service.h): it opens the
// trace and hands it to SimService::run_to_completion; interactive
// clients use the service directly. Warmup and scan mode are config
// fields (SimConfig::warmup_accesses, SimConfig::sched.scan_mode).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sim/simulator.h"
#include "trace/profiles.h"
#include "trace/trace.h"

namespace wompcm {

// How a sweep distributes its (architecture, benchmark) cells.
struct ParallelPolicy {
  // 0 = one worker per hardware thread; 1 = serial in the calling thread;
  // N = fixed pool of N workers. Results are bit-identical either way:
  // every cell owns its own simulator, trace source, and derived seed.
  unsigned jobs = 0;

  static ParallelPolicy serial() { return ParallelPolicy{1}; }
  static ParallelPolicy automatic() { return ParallelPolicy{0}; }
  static ParallelPolicy with_jobs(unsigned n) { return ParallelPolicy{n}; }

  unsigned resolved_jobs() const;  // >= 1
};

// One benchmark's results across a set of architectures.
struct SweepRow {
  std::string benchmark;
  std::vector<SimResult> results;  // parallel to the arch list
};

// Where the access stream comes from. A TraceSpec is pure description —
// opening it (and any named-profile lookup) happens inside run().
class TraceSpec {
 public:
  enum class Kind : std::uint8_t {
    kProfile,    // an explicit WorkloadProfile, synthesized
    kBenchmark,  // a paper benchmark by name (trace/profiles.h), synthesized
    kFile,       // a recorded trace file (trace/file_source.h)
  };

  // Default: the first paper benchmark would be arbitrary, so default to an
  // empty benchmark name — open() rejects it with a clear error.
  TraceSpec() = default;

  static TraceSpec benchmark(std::string name, std::uint64_t accesses);
  static TraceSpec profile(WorkloadProfile p, std::uint64_t accesses);
  static TraceSpec file(std::string path);

  Kind kind() const { return kind_; }
  // Benchmark/profile name, or the file path.
  const std::string& name() const { return name_; }
  // Synthetic trace length; 0 for file traces (they run to end of file).
  std::uint64_t accesses() const { return accesses_; }

  // Seed the opened source actually draws from: synthetic traces mix the
  // profile name into the base seed so different benchmarks see different
  // streams even with the same base seed; recorded files ignore it.
  std::uint64_t mixed_seed(std::uint64_t seed) const;

  // Opens the source. Throws std::invalid_argument for an unknown
  // benchmark name, std::runtime_error for an unreadable trace file.
  std::unique_ptr<TraceSource> open(const MemoryGeometry& geom,
                                    std::uint64_t seed) const;

 private:
  Kind kind_ = Kind::kBenchmark;
  std::string name_;
  std::optional<WorkloadProfile> profile_;
  std::uint64_t accesses_ = 0;
};

struct RunOptions {
  // Worker policy, for both run_sweep() (cell distribution) and single
  // runs (channel sharding, sim/sharded.h). A single run passes jobs to
  // SimService, whose backend shards only on an explicit jobs > 1 with a
  // multi-channel geometry (make_backend(), sim/backend.h); jobs = 0
  // ("automatic") stays serial on purpose: run() is also called per cell
  // inside parallel sweeps, and auto-sharding there would nest channel
  // workers inside sweep workers. Sharded and serial results are
  // bit-identical either way.
  ParallelPolicy jobs{};
  // Base trace seed (mixed per benchmark, see TraceSpec::mixed_seed).
  std::uint64_t seed = 42;

  // Convenience for the overwhelmingly common case of "defaults, but this
  // seed" (designated initializers would do, but GCC 12 flags the omitted
  // defaulted members under -Wextra).
  static RunOptions with_seed(std::uint64_t s) {
    RunOptions o;
    o.seed = s;
    return o;
  }
};

struct RunRequest {
  SimConfig config;
  TraceSpec trace;
  RunOptions options{};
};

// Runs one request to completion. For synthetic traces an unset warmup
// resolves to accesses/5; throws std::invalid_argument if the resolved
// warmup budget is not smaller than the trace length (it would record no
// latency samples).
SimResult run(const RunRequest& req);

// Runs every profile against every architecture, each cell an independent
// simulation of `base` with the architecture swapped in (same trace per
// benchmark). Cells are distributed per base.options.jobs; the result is
// independent of the policy. `base.trace` supplies the per-benchmark
// access count, so it must be synthetic.
std::vector<SweepRow> run_sweep(const RunRequest& base,
                                const std::vector<ArchConfig>& archs,
                                const std::vector<WorkloadProfile>& profiles);

}  // namespace wompcm
