// Diffs two perf_trace outputs (BENCH_singlerun.json schema) and prints
// per-scenario speedups: new rate / old rate per platform. The CI
// perf-regression gate runs it against the committed JSON:
//
//   perf_diff old=BENCH_singlerun.json new=build/bench_now.json
//             min_ratio=0.7 gate=true
//
// gate=true exits 1 when any scenario's ratio falls below min_ratio —
// unless either file was recorded with degraded_environment:true (a
// single-hardware-thread host whose wall-clock contends with the rest of
// the machine), in which case the gate only warns: those numbers measure
// correctness, not speed.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/config.h"

namespace {

using wompcm::KeyValueConfig;

struct Scenario {
  std::string name;
  double rate = 0.0;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "perf_diff: cannot read %s\n", path.c_str());
    std::exit(2);
  }
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// Minimal scan of the self-describing perf_trace schema: each key directly
// under "runs" is a scenario object whose first rate field is
// "accesses_per_sec". (Matches the baseline_rate() scanner in
// bench/perf_trace.cc; neither needs a JSON library for this shape.)
std::vector<Scenario> scenarios(const std::string& json,
                                const std::string& path) {
  std::vector<Scenario> out;
  const std::size_t runs = json.find("\"runs\"");
  if (runs == std::string::npos) {
    std::fprintf(stderr,
                 "perf_diff: %s has no \"runs\" section (expects the "
                 "perf_trace/BENCH_singlerun.json schema)\n",
                 path.c_str());
    std::exit(2);
  }
  // The embedded "baseline" section repeats the scenario names: stop there.
  std::size_t end = json.find("\"baseline\"", runs);
  if (end == std::string::npos) end = json.size();
  std::size_t pos = json.find('{', runs);
  while (pos != std::string::npos) {
    const std::size_t q = json.find('"', pos + 1);
    if (q == std::string::npos || q >= end) break;
    const std::size_t q2 = json.find('"', q + 1);
    if (q2 == std::string::npos || q2 >= end) break;
    Scenario s;
    s.name = json.substr(q + 1, q2 - q - 1);
    const std::size_t rate = json.find("\"accesses_per_sec\":", q2);
    if (rate == std::string::npos || rate >= end) break;
    s.rate = std::atof(json.c_str() + rate + 19);
    out.push_back(s);
    // Skip the rest of this scenario object (the only nested braces are the
    // one-line phases_ns object that follows the rate field).
    pos = json.find('}', rate);
    if (pos != std::string::npos) pos = json.find('}', pos + 1);
  }
  return out;
}

bool degraded(const std::string& json) {
  return json.find("\"degraded_environment\": true") != std::string::npos;
}

double find_rate(const std::vector<Scenario>& v, const std::string& name) {
  for (const Scenario& s : v) {
    if (s.name == name) return s.rate;
  }
  return 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  const KeyValueConfig args = KeyValueConfig::from_args(argc, argv);
  const std::string old_path = args.get_string_or("old", "");
  const std::string new_path = args.get_string_or("new", "");
  double min_ratio = 0.0;
  bool gate = false;
  try {
    min_ratio = args.get_double_or("min_ratio", 0.0);
    gate = args.get_bool_or("gate", false);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perf_diff: %s\n", e.what());
    return 2;
  }
  if (old_path.empty() || new_path.empty()) {
    std::fprintf(stderr,
                 "usage: perf_diff old=FILE new=FILE [min_ratio=R] "
                 "[gate=true]\n");
    return 2;
  }

  const std::string old_json = read_file(old_path);
  const std::string new_json = read_file(new_path);
  const std::vector<Scenario> old_runs = scenarios(old_json, old_path);
  const std::vector<Scenario> new_runs = scenarios(new_json, new_path);
  const bool warn_only = degraded(old_json) || degraded(new_json);

  std::printf("perf_diff: %s -> %s\n", old_path.c_str(), new_path.c_str());
  if (warn_only) {
    std::printf("  (degraded environment recorded: single-hardware-thread "
                "host; ratios are informational, gate warns only)\n");
  }

  bool regressed = false;
  for (const Scenario& s : new_runs) {
    const double base = find_rate(old_runs, s.name);
    if (base <= 0.0) {
      std::printf("  %-16s %12.0f acc/s   (no baseline entry)\n",
                  s.name.c_str(), s.rate);
      continue;
    }
    const double ratio = s.rate / base;
    const bool below = min_ratio > 0.0 && ratio < min_ratio;
    regressed = regressed || below;
    std::printf("  %-16s %12.0f -> %12.0f acc/s   %.3fx%s\n", s.name.c_str(),
                base, s.rate, ratio, below ? "  REGRESSION" : "");
  }
  for (const Scenario& s : old_runs) {
    if (find_rate(new_runs, s.name) == 0.0) {
      std::printf("  %-16s dropped from new results\n", s.name.c_str());
    }
  }

  if (regressed) {
    if (gate && !warn_only) {
      std::fprintf(stderr,
                   "perf_diff: FAIL: at least one scenario below %.2fx of "
                   "the committed baseline\n",
                   min_ratio);
      return 1;
    }
    std::printf("perf_diff: WARNING: at least one scenario below %.2fx of "
                "the committed baseline%s\n",
                min_ratio, warn_only ? " (not gating: degraded)" : "");
  }
  return 0;
}
