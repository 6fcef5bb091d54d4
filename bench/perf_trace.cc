// Single-run perf harness: times one end-to-end trace-driven simulation on
// the three reference platforms (paper PCM-refresh, dual-channel, paper
// WCPCM) and writes a machine-readable BENCH_singlerun.json. Where
// perf_sweep measures the *sweep* engine (many cells in parallel), this
// bench measures the cost of a single simulated trace — the per-event hot
// path of queues, scheduler, banks, and next-event dispatch.
//
// Arguments: accesses=N (default 300000), seed=S (42), profile=P
// ("401.bzip2"), repeats=R (3; wall-clock is the best of R), out=FILE
// (BENCH_singlerun.json), baseline=FILE (optional: a previous output of
// this bench whose per-config rates are embedded as the "baseline" section
// and used for the speedup figures), baseline_note=TEXT,
// interleaved_ab=true (record in the JSON that the baseline file was
// produced in the same session, alternating baseline-binary and
// current-binary runs, so both sides saw the same host conditions).
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_json.h"
#include "common/config.h"
#include "common/thread_pool.h"
#include "sim/experiment.h"

namespace {

using namespace wompcm;

struct Platform {
  std::string name;
  SimConfig cfg;
};

// The three reference platforms, constructed in code so the bench runs
// from any working directory. They mirror configs/paper.cfg,
// configs/dualchannel.cfg, and the paper platform with arch=wcpcm.
std::vector<Platform> platforms() {
  std::vector<Platform> out;

  Platform paper;
  paper.name = "paper-refresh";
  paper.cfg = paper_config();
  paper.cfg.arch.composition = arch_preset("refresh");
  out.push_back(paper);

  Platform dual;
  dual.name = "dualchannel";
  dual.cfg = paper_config();
  dual.cfg.geom.channels = 2;
  dual.cfg.geom.ranks = 8;
  dual.cfg.arch.composition = arch_preset("refresh");
  out.push_back(dual);

  Platform wcpcm;
  wcpcm.name = "paper-wcpcm";
  wcpcm.cfg = paper_config();
  wcpcm.cfg.arch.composition = arch_preset("wcpcm");
  out.push_back(wcpcm);

  return out;
}

struct RunSample {
  std::string arch;
  double wall_s = 0.0;
  double accesses_per_sec = 0.0;
  SimResult::PhaseCounters phases;
};

// Minimal extraction of "accesses_per_sec" values from a previous output of
// this bench: scans for '"<name>"' and then the next accesses_per_sec
// field. Good enough for the self-describing schema this bench writes.
double baseline_rate(const std::string& json, const std::string& name) {
  const std::string key = "\"" + name + "\"";
  std::size_t at = json.find(key);
  while (at != std::string::npos) {
    const std::size_t rate = json.find("\"accesses_per_sec\":", at);
    if (rate == std::string::npos) return 0.0;
    const double v = std::atof(json.c_str() + rate + 19);
    if (v > 0.0) return v;
    at = json.find(key, at + key.size());
  }
  return 0.0;
}

int trace_main(const KeyValueConfig& args) {
  const auto accesses = static_cast<std::uint64_t>(
      args.get_int_in("accesses", 300000, 1, INT64_MAX));
  const auto seed =
      static_cast<std::uint64_t>(args.get_int_in("seed", 42, 0, INT64_MAX));
  const auto repeats =
      static_cast<int>(args.get_int_in("repeats", 3, 1, 1000));
  const std::string profile_name =
      args.get_string_or("profile", "401.bzip2");
  const std::string out_path =
      args.get_string_or("out", "BENCH_singlerun.json");
  const std::string baseline_path = args.get_string_or("baseline", "");
  const std::string baseline_note = args.get_string_or("baseline_note", "");
  const bool interleaved_ab =
      args.get_string_or("interleaved_ab", "false") == "true";

  const auto profile = find_profile(profile_name);
  if (!profile.has_value()) {
    std::fprintf(stderr, "unknown profile: %s\n", profile_name.c_str());
    return 1;
  }

  std::string baseline_json;
  if (!baseline_path.empty()) {
    std::ifstream in(baseline_path);
    if (!in) {
      std::fprintf(stderr, "cannot read baseline: %s\n",
                   baseline_path.c_str());
      return 1;
    }
    std::stringstream ss;
    ss << in.rdbuf();
    baseline_json = ss.str();
  }

  // This bench is single-threaded, but a one-thread host still means the
  // wall-clock shares its core with everything else on the machine: flag
  // the numbers rather than let a trend chart silently mix them in.
  const unsigned hw = ThreadPool::hardware_workers();
  const bool degraded = hw == 1;

  std::printf("perf_trace: %llu accesses of %s per platform, seed %llu, "
              "best of %d\n\n",
              static_cast<unsigned long long>(accesses), profile_name.c_str(),
              static_cast<unsigned long long>(seed), repeats);
  if (degraded) {
    std::printf("WARNING: single hardware thread: wall-clock contends with "
                "the rest of the host (degraded environment)\n\n");
  }

  std::vector<std::pair<std::string, RunSample>> rows;
  for (const Platform& p : platforms()) {
    RunSample best;
    for (int r = 0; r < repeats; ++r) {
      const SimResult res = run({p.cfg, TraceSpec::profile(*profile, accesses),
                                 RunOptions::with_seed(seed)});
      const double wall =
          static_cast<double>(res.phases.total_ns) * 1e-9;
      if (r == 0 || wall < best.wall_s) {
        best.arch = res.arch_name;
        best.wall_s = wall;
        best.accesses_per_sec =
            wall > 0.0 ? static_cast<double>(accesses) / wall : 0.0;
        best.phases = res.phases;
      }
    }
    const double base = baseline_json.empty()
                            ? 0.0
                            : baseline_rate(baseline_json, p.name);
    std::printf("%-14s %-34s %8.3f s  %10.0f acc/s", p.name.c_str(),
                best.arch.c_str(), best.wall_s, best.accesses_per_sec);
    if (base > 0.0) std::printf("  (%.2fx vs baseline)",
                                best.accesses_per_sec / base);
    std::printf("\n");
    rows.emplace_back(p.name, best);
  }

  bench::BenchJson json(out_path, "perf_trace");
  if (!json.valid()) return 1;
  std::FILE* f = json.file();
  json.field_u64("accesses", accesses);
  json.field_u64("seed", seed);
  json.field_str("profile", profile_name);
  json.field_int("repeats", repeats);
  json.environment();
  json.field_bool("interleaved_ab", interleaved_ab);
  std::fprintf(f, "  \"runs\": {\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& [name, s] = rows[i];
    std::fprintf(f, "    \"%s\": {\n", name.c_str());
    std::fprintf(f, "      \"arch\": \"%s\",\n", s.arch.c_str());
    std::fprintf(f, "      \"wall_s\": %.6f,\n", s.wall_s);
    std::fprintf(f, "      \"accesses_per_sec\": %.1f,\n",
                 s.accesses_per_sec);
    std::fprintf(f, "      \"phases_ns\": ");
    json.phases_object(s.phases);
    std::fprintf(f, "\n    }%s\n", i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  }%s\n", baseline_json.empty() ? "" : ",");
  if (!baseline_json.empty()) {
    std::fprintf(f, "  \"baseline\": {\n");
    if (!baseline_note.empty()) {
      std::fprintf(f, "    \"note\": \"%s\",\n", baseline_note.c_str());
    }
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const auto& [name, s] = rows[i];
      const double base = baseline_rate(baseline_json, name);
      std::fprintf(f, "    \"%s\": {\"accesses_per_sec\": %.1f, "
                   "\"speedup\": %.3f}%s\n",
                   name.c_str(), base,
                   base > 0.0 ? s.accesses_per_sec / base : 0.0,
                   i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  }\n");
  }
  std::fprintf(f, "}\n");
  std::printf("\nwrote %s\n", out_path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return trace_main(KeyValueConfig::from_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perf_trace: %s\n", e.what());
    return 1;
  }
}
