// Experiment harness: the arch x benchmark sweeps behind every figure.
//
// All benches and the reproduction tests go through these helpers so that
// "the paper configuration" is defined in exactly one place.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/run.h"
#include "sim/simulator.h"
#include "trace/profiles.h"

namespace wompcm {

// The paper's default platform: 1 channel, 16 ranks, 32 banks/rank,
// 32768 rows, 2048 cols x 4 bits x 16 devices, DDR3 burst 8; PCM latencies
// 27/150/40/150 ns and a 4000 ns refresh period; <2^2>^2/3 inverted code.
SimConfig paper_config();

// The four architectures of Fig. 5, in presentation order: the presets
// pcm (baseline), wom (WOM-code PCM), refresh (PCM-refresh) and wcpcm.
std::vector<ArchConfig> paper_architectures();

// Builds the composition cross-product {main codings} x {cache on/off} x
// {refresh kinds}, silently skipping combinations composition_valid()
// rejects (e.g. refresh=rat with no WOM-coded region). Every returned
// ArchConfig carries a validated composition plus `code` for its WOM
// regions, ready to feed run_sweep() (sim/run.h).
std::vector<ArchConfig> composition_sweep(
    const std::vector<CodingKind>& main_codings,
    const std::vector<bool>& cache_options,
    const std::vector<RefreshKind>& refresh_options,
    const std::string& code = "rs23-inv");

// Normalizes a metric against column `baseline` (default: first arch).
// extract(result) must return the metric (e.g. avg write latency).
template <typename Extract>
std::vector<std::vector<double>> normalize(const std::vector<SweepRow>& rows,
                                           Extract&& extract,
                                           std::size_t baseline = 0) {
  std::vector<std::vector<double>> out;
  out.reserve(rows.size());
  for (const SweepRow& row : rows) {
    const double base = extract(row.results.at(baseline));
    std::vector<double> r;
    r.reserve(row.results.size());
    for (const SimResult& res : row.results) {
      r.push_back(base > 0.0 ? extract(res) / base : 0.0);
    }
    out.push_back(std::move(r));
  }
  return out;
}

// Arithmetic mean of column `c` over all rows (the paper's "average" bars).
double column_mean(const std::vector<std::vector<double>>& m, std::size_t c);

}  // namespace wompcm
