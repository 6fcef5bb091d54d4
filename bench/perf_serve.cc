// Perf harness for multi-stream serving. Builds N per-core benchmark
// streams and runs them against a multi-channel platform two ways: as a
// batch run over the pre-merged mix (trace/mix.h), and in service mode — N
// live SimService sessions (sim/service.h) fed chunk by chunk through the
// streaming submit/step API, under back-pressure. The two are verified
// bit-identical (exit 1 on a mismatch), and the report shows accesses/sec
// versus streams plus each channel's bus utilization.
//
// Arguments: accesses=N per stream (default 10000), seed=S (42),
// channels=C (4, in [1, 16]; ranks per channel = 16 / C), streams=K (0 =
// the full {1, 2, 4, 8} sweep, otherwise just K), chunk=B (256 records
// per submit), out=FILE (BENCH_serve.json). An integer argument out of
// range exits 1 with an error naming it.
#include <cstdint>
#include <cstdio>
#include <exception>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_json.h"
#include "common/config.h"
#include "common/perf.h"
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

// Batch mode: the pre-merged mix through SimService::run_to_completion.
Measurement measure_batch(const SimConfig& cfg, unsigned streams,
                          std::uint64_t accesses, std::uint64_t seed) {
  const auto mix = make_mix(streams, cfg.geom, accesses, seed);
  Measurement m;
  const std::uint64_t t0 = perf::now_ns();
  m.result = SimService(cfg).run_to_completion(*mix);
  m.wall_s = static_cast<double>(perf::now_ns() - t0) * 1e-9;
  return m;
}

// Service mode: every stream is a live session, fed `chunk` records per
// submit and resubmitting whatever back-pressure bounces — the interactive
// client path, where the service does the arrival-order merge the batch
// driver above gets from MixTraceSource.
Measurement measure_service(const SimConfig& cfg, unsigned streams,
                            std::uint64_t accesses, std::uint64_t seed,
                            std::size_t chunk) {
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
  SimService svc(cfg);
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

// Demand-busy fraction of each channel's data bus over the run.
std::vector<double> channel_utilization(const SimResult& r, unsigned channels) {
  std::vector<double> util(channels, 0.0);
  if (r.end_time == 0) return util;
  for (unsigned c = 0; c < channels; ++c) {
    util[c] = static_cast<double>(
                  r.metrics.counter(channel_metric(c, "bus_busy_ns"))) /
              static_cast<double>(r.end_time);
  }
  return util;
}

int serve_main(const KeyValueConfig& args) {
  const auto accesses = static_cast<std::uint64_t>(
      args.get_int_in("accesses", 10000, 1, INT64_MAX));
  const auto seed =
      static_cast<std::uint64_t>(args.get_int_in("seed", 42, 0, INT64_MAX));
  const auto channels =
      static_cast<unsigned>(args.get_int_in("channels", 4, 1, 16));
  const auto one_streams =
      static_cast<unsigned>(args.get_int_in("streams", 0, 0, 1024));
  const auto chunk =
      static_cast<std::size_t>(args.get_int_in("chunk", 256, 1, 1 << 20));
  const std::string out_path = args.get_string_or("out", "BENCH_serve.json");
  // Free-form provenance string recorded in the JSON (e.g. whether the
  // run was interleaved A/B against a baseline binary).
  const std::string note = args.get_string_or("note", "");

  SimConfig cfg = paper_config();
  cfg.geom.channels = channels;
  cfg.geom.ranks = 16 / channels;  // keep total ranks constant
  const char* const preset = "refresh";
  cfg.arch.composition = arch_preset(preset);
  cfg.warmup_accesses = 0;
  std::string why;
  if (!cfg.geom.valid(&why)) {
    throw std::invalid_argument("bad value for channels: " +
                                std::to_string(channels) + " (" + why + ")");
  }

  std::vector<unsigned> stream_counts = {1, 2, 4, 8};
  if (one_streams != 0) stream_counts = {one_streams};

  std::printf("perf_serve: %u-channel %s, %llu accesses/stream, seed %llu\n",
              channels, preset, static_cast<unsigned long long>(accesses),
              static_cast<unsigned long long>(seed));
  std::printf("\n%8s %8s %12s %12s %9s\n", "streams", "mode", "acc/s",
              "wall_s", "speedup");

  bench::BenchJson json(out_path, "perf_serve", /*schema=*/3);
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
    const Measurement batch = measure_batch(cfg, streams, accesses, seed);
    const Measurement service =
        measure_service(cfg, streams, accesses, seed, chunk);
    if (!bench::same_result(batch.result, service.result, &why)) {
      std::printf("MISMATCH (service) at streams=%u: %s differs\n", streams,
                  why.c_str());
      return 1;
    }
    const double speedup =
        service.wall_s > 0.0 ? batch.wall_s / service.wall_s : 0.0;
    std::printf("%8u %8s %12.0f %12.3f %9s\n", streams, "batch",
                accesses_per_sec(batch), batch.wall_s, "1.00x");
    std::printf("%8u %8s %12.0f %12.3f %8.2fx\n", streams, "service",
                accesses_per_sec(service), service.wall_s, speedup);

    const std::vector<double> util =
        channel_utilization(batch.result, channels);
    std::fprintf(f, "%s    {\"streams\": %u, "
                 "\"batch\": {\"wall_s\": %.6f, \"accesses_per_sec\": "
                 "%.1f},\n"
                 "     \"service\": {\"wall_s\": %.6f, "
                 "\"accesses_per_sec\": %.1f, \"speedup\": %.3f},\n"
                 "     \"bit_identical\": true,\n"
                 "     \"per_channel_utilization\": [",
                 first_row ? "" : ",\n", streams, batch.wall_s,
                 accesses_per_sec(batch), service.wall_s,
                 accesses_per_sec(service), speedup);
    for (unsigned c = 0; c < channels; ++c) {
      std::fprintf(f, "%s%.4f", c == 0 ? "" : ", ", util[c]);
    }
    std::fprintf(f, "]}");
    first_row = false;
  }
  std::fprintf(f, "\n  ]\n}\n");
  std::printf("\nresults bit-identical (batch and service); wrote %s\n",
              out_path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return serve_main(KeyValueConfig::from_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perf_serve: %s\n", e.what());
    return 1;
  }
}
