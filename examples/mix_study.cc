// Multi-programmed study: a multicore mix of benchmarks sharing one PCM
// memory system.
//
// Mixes one benchmark per "core" into a single interleaved stream and runs
// the four paper architectures plus the symmetric-write ideal (S = 1) as
// the upper bound. Inter-program bank interference raises the pressure on
// the SET-bound writes, which is where the WOM architectures earn their
// keep.
//
// Usage: mix_study [cores=4 (1-64)] [accesses=N per core] [seed=S]
//        [b0=NAME b1=NAME ...]

#include <cstdint>
#include <cstdio>
#include <exception>

#include "womcode.h"

using namespace wompcm;

namespace {

std::unique_ptr<MixTraceSource> build_mix(
    const std::vector<WorkloadProfile>& profiles, const MemoryGeometry& geom,
    std::uint64_t accesses, std::uint64_t seed) {
  std::vector<std::unique_ptr<TraceSource>> parts;
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    parts.push_back(std::make_unique<SyntheticTraceSource>(
        profiles[i], geom, seed * 1315423911u + i, accesses));
  }
  return std::make_unique<MixTraceSource>(std::move(parts));
}

int mix_main(const KeyValueConfig& args) {
  const auto cores =
      static_cast<std::size_t>(args.get_int_in("cores", 4, 1, 64));
  const auto accesses = static_cast<std::uint64_t>(
      args.get_int_in("accesses", 40000, 1, std::int64_t{1} << 40));
  const auto seed =
      static_cast<std::uint64_t>(args.get_int_in("seed", 42, 0, INT64_MAX));

  const char* defaults[] = {"401.bzip2", "464.h264ref", "ocean",
                            "482.sphinx3", "qsort", "470.lbm",
                            "456.hmmer", "water-ns"};
  // Core i's benchmark key, b<i>. append(), not "b" + to_string(i): GCC 12
  // warns -Wrestrict on that.
  auto core_key = [](std::size_t i) {
    return std::string("b").append(std::to_string(i));
  };
  std::vector<WorkloadProfile> mix;
  for (std::size_t i = 0; i < cores; ++i) {
    const std::string name = args.get_string_or(
        core_key(i), defaults[i % std::size(defaults)]);
    const auto p = find_profile(name);
    if (!p) {
      std::printf("unknown benchmark %s\n", name.c_str());
      return 1;
    }
    mix.push_back(*p);
  }

  std::printf("Mix of %zu cores:", mix.size());
  for (const auto& p : mix) std::printf(" %s", p.name.c_str());
  std::printf("  (%llu accesses/core)\n\n",
              static_cast<unsigned long long>(accesses));

  const char* const presets[] = {"pcm", "wom", "refresh", "wcpcm", "symmetric"};
  TextTable t({"architecture", "avg write ns", "w norm", "avg read ns",
               "r norm", "max bank util", "row hit rate"});
  double base_w = 0, base_r = 0;
  std::vector<std::string> harness_keys = {"cores", "accesses", "seed"};
  for (std::size_t i = 0; i < cores; ++i) {
    harness_keys.push_back(core_key(i));
  }
  for (const char* preset : presets) {
    SimConfig cfg = apply_overrides(paper_config(), args, harness_keys);
    cfg.arch.composition = arch_preset(preset);
    cfg.warmup_accesses = cores * accesses / 5;
    auto trace = build_mix(mix, cfg.geom, accesses, seed);
    const SimResult r = SimService(cfg).run_to_completion(*trace);
    if (preset == presets[0]) {
      base_w = r.avg_write_ns();
      base_r = r.avg_read_ns();
    }
    t.add_row({r.arch_name, TextTable::fmt(r.avg_write_ns(), 1),
               TextTable::fmt(r.avg_write_ns() / base_w),
               TextTable::fmt(r.avg_read_ns(), 1),
               TextTable::fmt(r.avg_read_ns() / base_r),
               TextTable::fmt(r.max_bank_utilization(), 3),
               TextTable::fmt(r.row_hit_rate(), 3)});
  }
  std::printf("%s\n", t.to_text().c_str());
  std::printf(
      "symmetric-ideal is the S=1 upper bound; pcm-refresh should close\n"
      "most of the gap toward it. Note WCPCM's gain shrinks with core\n"
      "count: all of a rank's writes funnel through its single WOM-cache\n"
      "array (watch max bank util), a scalability limit the paper's\n"
      "single-program evaluation does not exercise.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return mix_main(KeyValueConfig::from_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mix_study: %s\n", e.what());
    return 1;
  }
}
