// Hot-path microbench for the devirtualized tag probe: TagArray probe
// throughput per replacement policy (the enum-switched ReplacementState).
//
// Arguments: ops=N (default 2000000) probe operations per policy.
#include <cstdio>
#include <exception>

#include "arch/tag_array.h"
#include "common/config.h"
#include "common/perf.h"
#include "common/rng.h"

namespace {

using namespace wompcm;

// One mixed probe stream: lookup -> touch on hit, fill_way + install on
// miss — the exact hook sequence TierFront drives per access.
double tag_probe_rate(ReplacementKind kind, unsigned sets, unsigned ways,
                      std::uint64_t ops) {
  TagArray tags(sets, ways, kind, /*seed=*/1);
  Rng rng(42);
  // Tag space ~2x the capacity: a steady mix of hits and misses.
  const std::uint64_t tag_space = 2 * static_cast<std::uint64_t>(ways);
  std::uint64_t sink = 0;
  const std::uint64_t t0 = perf::now_ns();
  for (std::uint64_t i = 0; i < ops; ++i) {
    const unsigned set = static_cast<unsigned>(rng.next_below(sets));
    const std::uint64_t tag = rng.next_below(tag_space);
    const unsigned w = tags.lookup(set, tag);
    if (w != TagArray::kNoWay) {
      tags.touch(set, w);
      sink += w;
    } else {
      const unsigned v = tags.fill_way(set);
      tags.install(set, v, tag);
      sink += v;
    }
  }
  const std::uint64_t ns = perf::now_ns() - t0;
  // Keep the probe results observable so the loop cannot be elided.
  if (sink == ~std::uint64_t{0}) std::printf("(unreachable %llu)\n",
                                             (unsigned long long)sink);
  return ns == 0 ? 0.0 : static_cast<double>(ops) * 1e9 /
                             static_cast<double>(ns);
}

int hotpath_main(const KeyValueConfig& args) {
  const auto ops = static_cast<std::uint64_t>(
      args.get_int_in("ops", 2000000, 1, INT64_MAX));

  std::printf("perf_hotpath (devirtualized dispatch)\n\n");

  std::printf("TagArray probe throughput (%llu mixed probes each):\n",
              static_cast<unsigned long long>(ops));
  struct Case {
    const char* label;
    ReplacementKind kind;
    unsigned sets, ways;
  };
  const Case cases[] = {
      {"lru      1024x4", ReplacementKind::kLru, 1024, 4},
      {"lru       256x8", ReplacementKind::kLru, 256, 8},
      {"fifo     1024x4", ReplacementKind::kFifo, 1024, 4},
      {"random   1024x4", ReplacementKind::kRandom, 1024, 4},
  };
  for (const Case& c : cases) {
    const double rate = tag_probe_rate(c.kind, c.sets, c.ways, ops);
    std::printf("  %-16s %10.1f Mprobe/s\n", c.label, rate * 1e-6);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return hotpath_main(KeyValueConfig::from_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perf_hotpath: %s\n", e.what());
    return 1;
  }
}
