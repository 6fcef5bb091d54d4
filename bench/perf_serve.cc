// Perf harness for multi-stream serving. Builds N per-core benchmark
// streams and runs them against a multi-channel platform three ways:
// serially over the pre-merged mix (trace/mix.h), sharded over the same
// mix (SimService with jobs > 1, sim/sharded.h), and in service mode — N
// live SimService sessions (sim/service.h) fed chunk by chunk through the
// streaming submit/step API, under back-pressure. All three are verified
// bit-identical, and the report shows accesses/sec versus streams x jobs
// plus each channel shard's bus utilization.
//
// Arguments: accesses=N per stream (default 10000), seed=S (42),
// channels=C (4), jobs=J (4; the sharded/service runs also measure
// jobs=2 when J != 2), streams=K (0 = the full {1, 2, 4, 8} sweep,
// otherwise just K), chunk=B (256 records per submit), out=FILE
// (BENCH_serve.json).
//
// On a single-hardware-thread host the sharded numbers measure barrier
// overhead, not parallelism; the JSON carries "degraded_environment":
// true so downstream tooling can discount them.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_json.h"
#include "common/config.h"
#include "common/perf.h"
#include "common/thread_pool.h"
#include "sim/experiment.h"
#include "sim/service.h"
#include "stats/metrics.h"
#include "trace/mix.h"
#include "trace/synthetic.h"

namespace {

using namespace wompcm;

// Per-stream seed recipe shared by the mix and service drivers (and by
// tools/womd): stream s draws from seed ^ (golden-ratio * (s + 1)).
std::uint64_t stream_seed(std::uint64_t seed, unsigned s) {
  return seed ^ (0x9e3779b97f4a7c15ULL * (s + 1));
}

// One serve mix: `streams` synthetic benchmark generators (cycling the
// paper suite, each on its own seed stream) merged by absolute arrival.
// Deterministic: rebuilt identically for every measured run.
std::unique_ptr<TraceSource> make_mix(unsigned streams,
                                      const MemoryGeometry& geom,
                                      std::uint64_t accesses,
                                      std::uint64_t seed) {
  const std::vector<WorkloadProfile> profiles = benchmark_profiles();
  std::vector<std::unique_ptr<TraceSource>> parts;
  parts.reserve(streams);
  for (unsigned s = 0; s < streams; ++s) {
    const WorkloadProfile& p = profiles[s % profiles.size()];
    parts.push_back(std::make_unique<SyntheticTraceSource>(
        p, geom, stream_seed(seed, s), accesses));
  }
  return std::make_unique<MixTraceSource>(std::move(parts));
}

struct Measurement {
  double wall_s = 0.0;
  SimResult result;
};

// Batch mode: the pre-merged mix through SimService::run_to_completion —
// serial at jobs=1, sharded across channels at jobs>1.
Measurement measure_batch(const SimConfig& cfg, unsigned streams,
                          std::uint64_t accesses, std::uint64_t seed,
                          unsigned jobs) {
  const auto mix = make_mix(streams, cfg.geom, accesses, seed);
  Measurement m;
  const std::uint64_t t0 = perf::now_ns();
  ServiceOptions opts;
  opts.jobs = jobs;
  m.result = SimService(cfg, opts).run_to_completion(*mix);
  m.wall_s = static_cast<double>(perf::now_ns() - t0) * 1e-9;
  return m;
}

// Service mode: every stream is a live session, fed `chunk` records per
// submit and resubmitting whatever back-pressure bounces — the interactive
// client path, where the service does the arrival-order merge the batch
// drivers above get from MixTraceSource.
Measurement measure_service(const SimConfig& cfg, unsigned streams,
                            std::uint64_t accesses, std::uint64_t seed,
                            unsigned jobs, std::size_t chunk) {
  const std::vector<WorkloadProfile> profiles = benchmark_profiles();
  struct Feed {
    std::unique_ptr<TraceSource> src;
    SessionId id = 0;
    std::vector<TraceRecord> buf;
    std::size_t off = 0;  // accepted prefix of buf
    bool eof = false;
    bool closed = false;
  };
  std::vector<Feed> feeds(streams);
  for (unsigned s = 0; s < streams; ++s) {
    feeds[s].src = std::make_unique<SyntheticTraceSource>(
        profiles[s % profiles.size()], cfg.geom, stream_seed(seed, s),
        accesses);
  }

  Measurement m;
  const std::uint64_t t0 = perf::now_ns();
  ServiceOptions opts;
  opts.jobs = jobs;
  SimService svc(cfg, opts);
  for (unsigned s = 0; s < streams; ++s) {
    StreamSpec spec;
    spec.name = "core" + std::to_string(s);
    spec.capacity = 4 * chunk;
    feeds[s].id = svc.open_session(spec);
  }
  unsigned live = streams;
  while (live > 0) {
    for (Feed& fd : feeds) {
      if (fd.closed) continue;
      if (fd.off == fd.buf.size() && !fd.eof) {
        fd.buf.resize(chunk);
        const std::size_t n = fd.src->next_block(fd.buf.data(), chunk);
        fd.buf.resize(n);
        fd.off = 0;
        fd.eof = n < chunk;
      }
      if (fd.off < fd.buf.size()) {
        fd.off +=
            svc.submit(fd.id, fd.buf.data() + fd.off, fd.buf.size() - fd.off)
                .accepted;
      }
      if (fd.eof && fd.off == fd.buf.size()) {
        svc.close_session(fd.id);
        fd.closed = true;
        --live;
      }
    }
    svc.step();
  }
  m.result = svc.drain();
  m.wall_s = static_cast<double>(perf::now_ns() - t0) * 1e-9;
  return m;
}

double accesses_per_sec(const Measurement& m) {
  const auto injected = m.result.injected_reads + m.result.injected_writes;
  return m.wall_s > 0.0 ? static_cast<double>(injected) / m.wall_s : 0.0;
}

// Demand-busy fraction of each channel shard's data bus over the run.
std::vector<double> shard_utilization(const SimResult& r, unsigned channels) {
  std::vector<double> util(channels, 0.0);
  if (r.end_time == 0) return util;
  for (unsigned c = 0; c < channels; ++c) {
    util[c] = static_cast<double>(
                  r.metrics.counter(channel_metric(c, "bus_busy_ns"))) /
              static_cast<double>(r.end_time);
  }
  return util;
}

}  // namespace

int main(int argc, char** argv) {
  const KeyValueConfig args = KeyValueConfig::from_args(argc, argv);
  const auto accesses =
      static_cast<std::uint64_t>(args.get_int_or("accesses", 10000));
  const auto seed = static_cast<std::uint64_t>(args.get_int_or("seed", 42));
  const auto channels =
      static_cast<unsigned>(args.get_int_or("channels", 4));
  const auto jobs = static_cast<unsigned>(args.get_int_or("jobs", 4));
  const auto one_streams =
      static_cast<unsigned>(args.get_int_or("streams", 0));
  const auto chunk =
      static_cast<std::size_t>(args.get_int_or("chunk", 256));
  const std::string out_path = args.get_string_or("out", "BENCH_serve.json");
  // Free-form provenance string recorded in the JSON (e.g. whether the
  // run was interleaved A/B against a baseline binary).
  const std::string note = args.get_string_or("note", "");

  SimConfig cfg = paper_config();
  cfg.geom.channels = channels;
  cfg.geom.ranks = std::max(1u, 16 / channels);  // keep total ranks constant
  const char* const preset = "refresh";
  cfg.arch.composition = arch_preset(preset);
  cfg.warmup_accesses = 0;

  std::vector<unsigned> stream_counts = {1, 2, 4, 8};
  if (one_streams != 0) stream_counts = {one_streams};
  std::vector<unsigned> job_counts = {jobs};
  if (jobs != 2) job_counts.insert(job_counts.begin(), 2);

  const unsigned hw = ThreadPool::hardware_workers();
  const bool degraded = hw == 1;
  std::printf("perf_serve: %u-channel %s, %llu accesses/stream, seed %llu, "
              "%u hardware thread(s)\n",
              channels, preset,
              static_cast<unsigned long long>(accesses),
              static_cast<unsigned long long>(seed), hw);
  if (degraded) {
    std::printf("WARNING: single hardware thread — sharded timings measure "
                "barrier overhead, not parallelism (degraded environment)\n");
  }
  std::printf("\n%8s %8s %8s %12s %12s %9s\n", "streams", "mode", "jobs",
              "acc/s", "wall_s", "speedup");

  bench::BenchJson json(out_path, "perf_serve", /*schema=*/2);
  if (!json.valid()) return 1;
  json.field_str("arch", preset);
  json.field_u64("channels", channels);
  json.field_u64("accesses_per_stream", accesses);
  json.field_u64("seed", seed);
  json.field_u64("chunk", chunk);
  json.environment(note);
  std::FILE* f = json.file();
  std::fprintf(f, "  \"rows\": [\n");

  bool first_row = true;
  for (const unsigned streams : stream_counts) {
    const Measurement serial = measure_batch(cfg, streams, accesses, seed, 1);
    std::printf("%8u %8s %8s %12.0f %12.3f %9s\n", streams, "batch", "1",
                accesses_per_sec(serial), serial.wall_s, "1.00x");

    for (const unsigned j : job_counts) {
      const Measurement sharded =
          measure_batch(cfg, streams, accesses, seed, j);
      const Measurement service =
          measure_service(cfg, streams, accesses, seed, j, chunk);
      std::string why;
      if (!bench::same_result(serial.result, sharded.result, &why)) {
        std::printf("MISMATCH (sharded) at streams=%u jobs=%u: %s differs\n",
                    streams, j, why.c_str());
        return 1;
      }
      if (!bench::same_result(serial.result, service.result, &why)) {
        std::printf("MISMATCH (service) at streams=%u jobs=%u: %s differs\n",
                    streams, j, why.c_str());
        return 1;
      }
      const double speedup =
          sharded.wall_s > 0.0 ? serial.wall_s / sharded.wall_s : 0.0;
      const double svc_speedup =
          service.wall_s > 0.0 ? serial.wall_s / service.wall_s : 0.0;
      std::printf("%8u %8s %8u %12.0f %12.3f %8.2fx\n", streams, "sharded",
                  j, accesses_per_sec(sharded), sharded.wall_s, speedup);
      std::printf("%8u %8s %8u %12.0f %12.3f %8.2fx\n", streams, "service",
                  j, accesses_per_sec(service), service.wall_s, svc_speedup);

      const std::vector<double> util =
          shard_utilization(sharded.result, channels);
      std::fprintf(f, "%s    {\"streams\": %u, \"jobs\": %u, "
                   "\"serial\": {\"wall_s\": %.6f, \"accesses_per_sec\": "
                   "%.1f},\n"
                   "     \"sharded\": {\"wall_s\": %.6f, "
                   "\"accesses_per_sec\": %.1f},\n"
                   "     \"service\": {\"wall_s\": %.6f, "
                   "\"accesses_per_sec\": %.1f, \"speedup\": %.3f},\n"
                   "     \"speedup\": %.3f, \"bit_identical\": true,\n"
                   "     \"per_shard_utilization\": [",
                   first_row ? "" : ",\n", streams, j, serial.wall_s,
                   accesses_per_sec(serial), sharded.wall_s,
                   accesses_per_sec(sharded), service.wall_s,
                   accesses_per_sec(service), svc_speedup, speedup);
      for (unsigned c = 0; c < channels; ++c) {
        std::fprintf(f, "%s%.4f", c == 0 ? "" : ", ", util[c]);
      }
      std::fprintf(f, "]}");
      first_row = false;
    }
  }
  std::fprintf(f, "\n  ]\n}\n");
  std::printf("\nresults bit-identical (sharded and service); wrote %s\n",
              out_path.c_str());
  return 0;
}
