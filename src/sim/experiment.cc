#include "sim/experiment.h"

#include "sim/run.h"

namespace wompcm {

SimConfig paper_config() {
  SimConfig cfg;
  // MemoryGeometry and PcmTiming defaults already encode the paper values.
  cfg.geom = MemoryGeometry{};
  cfg.timing = PcmTiming{};
  cfg.sched = SchedulerConfig{};
  cfg.refresh = RefreshConfig{};
  cfg.arch = ArchConfig{};
  return cfg;
}

std::vector<ArchConfig> paper_architectures() {
  const char* const presets[] = {"pcm", "wom", "refresh", "wcpcm"};
  std::vector<ArchConfig> v(std::size(presets));
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i].composition = arch_preset(presets[i]);
    v[i].code = "rs23-inv";
  }
  return v;
}

std::vector<ArchConfig> composition_sweep(
    const std::vector<CodingKind>& main_codings,
    const std::vector<bool>& cache_options,
    const std::vector<RefreshKind>& refresh_options,
    const std::string& code) {
  std::vector<ArchConfig> out;
  for (const CodingKind main : main_codings) {
    for (const bool cache : cache_options) {
      for (const RefreshKind refresh : refresh_options) {
        Composition c{main, cache, CodingKind::kWomWide, refresh};
        if (!composition_valid(c)) continue;
        ArchConfig a;
        a.composition = validate_composition(c);
        a.code = code;
        out.push_back(std::move(a));
      }
    }
  }
  return out;
}

double column_mean(const std::vector<std::vector<double>>& m, std::size_t c) {
  if (m.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& row : m) sum += row.at(c);
  return sum / static_cast<double>(m.size());
}

}  // namespace wompcm
