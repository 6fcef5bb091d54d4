#include "sim/run.h"

#include <algorithm>
#include <future>
#include <stdexcept>
#include <utility>

#include "common/thread_pool.h"
#include "sim/service.h"
#include "trace/binary_source.h"
#include "trace/synthetic.h"

namespace wompcm {

unsigned ParallelPolicy::resolved_jobs() const {
  return jobs == 0 ? ThreadPool::hardware_workers() : jobs;
}

TraceSpec TraceSpec::benchmark(std::string name, std::uint64_t accesses) {
  TraceSpec s;
  s.kind_ = Kind::kBenchmark;
  s.name_ = std::move(name);
  s.accesses_ = accesses;
  return s;
}

TraceSpec TraceSpec::profile(WorkloadProfile p, std::uint64_t accesses) {
  TraceSpec s;
  s.kind_ = Kind::kProfile;
  s.name_ = p.name;
  s.profile_ = std::move(p);
  s.accesses_ = accesses;
  return s;
}

TraceSpec TraceSpec::file(std::string path) {
  TraceSpec s;
  s.kind_ = Kind::kFile;
  s.name_ = std::move(path);
  return s;
}

std::uint64_t TraceSpec::mixed_seed(std::uint64_t seed) const {
  if (kind_ == Kind::kFile) return seed;
  // FNV-style mix of the benchmark name, so different benchmarks draw
  // different streams even with the same base seed.
  std::uint64_t s = seed;
  for (const char c : name_) {
    s = s * 1099511628211ull + static_cast<unsigned char>(c);
  }
  return s;
}

std::unique_ptr<TraceSource> TraceSpec::open(const MemoryGeometry& geom,
                                             std::uint64_t seed) const {
  switch (kind_) {
    case Kind::kProfile:
      return std::make_unique<SyntheticTraceSource>(*profile_, geom,
                                                    mixed_seed(seed),
                                                    accesses_);
    case Kind::kBenchmark: {
      const std::optional<WorkloadProfile> p = find_profile(name_);
      if (!p.has_value()) {
        throw std::invalid_argument("run: unknown benchmark \"" + name_ +
                                    "\" (see trace/profiles.h)");
      }
      return std::make_unique<SyntheticTraceSource>(*p, geom, mixed_seed(seed),
                                                    accesses_);
    }
    case Kind::kFile:
      // Format-dispatching: binary traces get the zero-copy mmap reader,
      // text traces the buffered parser (trace/binary_source.h).
      return open_trace(name_);
  }
  throw std::invalid_argument("run: bad TraceSpec kind");
}

namespace {

// One (architecture, benchmark) cell of a sweep: an independent run of
// `base` with the architecture swapped in. Every cell owns its own
// service, trace source, and name-derived seed, so cells can run in any
// order on any worker and still reproduce the serial sweep bit for bit.
SimResult run_cell(const SimConfig& base, const ArchConfig& arch,
                   const WorkloadProfile& profile, std::uint64_t accesses,
                   std::uint64_t seed) {
  RunRequest req;
  req.config = base;
  req.config.arch = arch;
  req.trace = TraceSpec::profile(profile, accesses);
  req.options.seed = seed;
  return run(req);
}

}  // namespace

SimResult run(const RunRequest& req) {
  SimConfig cfg = req.config;
  const std::uint64_t accesses = req.trace.accesses();
  if (accesses > 0) {
    if (!cfg.warmup_accesses.has_value()) {
      cfg.warmup_accesses = accesses / 5;
    }
    // The warmup budget is drawn down by reads and writes jointly (the
    // simulator skips recording for the first `warmup` transactions of
    // either kind), so a budget >= accesses would leave every latency stat
    // empty.
    if (*cfg.warmup_accesses >= accesses) {
      throw std::invalid_argument(
          "run: warmup_accesses (" + std::to_string(*cfg.warmup_accesses) +
          ") must be smaller than the trace length (" +
          std::to_string(accesses) + ")");
    }
  }
  const std::unique_ptr<TraceSource> trace =
      req.trace.open(cfg.geom, req.options.seed);
  return SimService(cfg).run_to_completion(*trace);
}

std::vector<SweepRow> run_sweep(const RunRequest& base,
                                const std::vector<ArchConfig>& archs,
                                const std::vector<WorkloadProfile>& profiles) {
  if (base.trace.kind() == TraceSpec::Kind::kFile) {
    throw std::invalid_argument(
        "run_sweep: the base trace must be synthetic (it only supplies the "
        "per-benchmark access count; the profile list names the traces)");
  }
  const SimConfig& cfg = base.config;
  const std::uint64_t accesses = base.trace.accesses();
  const std::uint64_t seed = base.options.seed;
  const std::size_t ncells = profiles.size() * archs.size();
  // No more workers than cells: a spare worker would only start and idle.
  const auto jobs = static_cast<unsigned>(
      std::min<std::size_t>(base.options.jobs.resolved_jobs(), ncells));

  std::vector<SweepRow> rows(profiles.size());
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    rows[i].benchmark = profiles[i].name;
    rows[i].results.resize(archs.size());
  }

  if (jobs <= 1) {
    for (std::size_t i = 0; i < profiles.size(); ++i) {
      for (std::size_t j = 0; j < archs.size(); ++j) {
        rows[i].results[j] =
            run_cell(cfg, archs[j], profiles[i], accesses, seed);
      }
    }
    return rows;
  }

  // Row/column order matches the serial sweep regardless of task
  // completion order.
  ThreadPool pool(jobs);
  std::vector<std::future<SimResult>> cells;
  cells.reserve(ncells);
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    for (std::size_t j = 0; j < archs.size(); ++j) {
      cells.push_back(pool.submit([&cfg, &archs, &profiles, accesses, seed, i,
                                   j] {
        return run_cell(cfg, archs[j], profiles[i], accesses, seed);
      }));
    }
  }
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    for (std::size_t j = 0; j < archs.size(); ++j) {
      rows[i].results[j] = cells[i * archs.size() + j].get();
    }
  }
  return rows;
}

}  // namespace wompcm
