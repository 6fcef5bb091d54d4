// Tiering ablation: what a DRAM-timing front tier buys on top of the
// paper's architectures, and how it interacts with the WOM bank-tag cache
// (DESIGN.md section 11). Four cells cross {no tier, DRAM tier} with
// {pcm-refresh, WCPCM}: the tier absorbs locality in front of the PCM
// queues, the WOM cache absorbs write traffic behind them, and the "both"
// cell shows the two layers compose rather than cannibalize. Two extra
// cells vary the tier's write policy and replacement to bound their
// influence.
//
// Emits one row per cell with benchmark-averaged demand latencies, the
// tier's pooled hit rate, its writeback traffic and the capacity overhead.
//
// Usage: ablation_tiering [accesses=N] [seed=S] [sets=N (1-2^20)]
//        [ways=N (1-64)]

#include <cstdint>
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "common/config.h"
#include "sim/experiment.h"
#include "stats/table.h"

using namespace wompcm;

namespace {

struct Cell {
  std::string name;
  SimConfig cfg;
};

int tiering_main(const KeyValueConfig& args) {
  const auto accesses = static_cast<std::uint64_t>(
      args.get_int_in("accesses", 40000, 1, INT64_MAX));
  const auto seed =
      static_cast<std::uint64_t>(args.get_int_in("seed", 42, 0, INT64_MAX));
  const auto sets =
      static_cast<unsigned>(args.get_int_in("sets", 1024, 1, 1 << 20));
  const auto ways = static_cast<unsigned>(args.get_int_in("ways", 4, 1, 64));

  // The dual-channel platform of configs/tiered.cfg: the tier is
  // per-channel state, one tier per channel.
  SimConfig base = paper_config();
  base.geom.channels = 2;
  base.geom.ranks = 8;

  auto with_tier = [&](SimConfig cfg) {
    cfg.tier.enabled = true;
    cfg.tier.sets = sets;
    cfg.tier.ways = ways;
    return cfg;
  };
  auto with_arch = [&](const char* preset) {
    SimConfig cfg = base;
    cfg.arch.composition = arch_preset(preset);
    return cfg;
  };

  std::vector<Cell> cells;
  cells.push_back({"refresh", with_arch("refresh")});
  cells.push_back({"refresh+tier",
                   with_tier(with_arch("refresh"))});
  cells.push_back({"wcpcm (wom-cache)", with_arch("wcpcm")});
  cells.push_back({"wcpcm+tier", with_tier(with_arch("wcpcm"))});
  {
    SimConfig cfg = with_tier(with_arch("refresh"));
    cfg.tier.write_policy = TierWritePolicy::kWritethrough;
    cells.push_back({"refresh+tier/wt", cfg});
  }
  {
    SimConfig cfg = with_tier(with_arch("refresh"));
    cfg.tier.replacement = ReplacementKind::kRandom;
    cells.push_back({"refresh+tier/rand", cfg});
  }

  const std::vector<WorkloadProfile> profiles = {*find_profile("401.bzip2"),
                                                 *find_profile("ocean")};

  std::printf("Tiering ablation: {no tier, %ux%u DRAM tier} x "
              "{pcm-refresh, wcpcm}, plus write-policy and replacement\n"
              "variants (benchmark average over 401.bzip2 and ocean, "
              "%llu accesses each)\n\n",
              sets, ways, static_cast<unsigned long long>(accesses));
  TextTable t({"cell", "write ns", "read ns", "tier hit%", "tier wb",
               "cap ovh"});
  for (const Cell& cell : cells) {
    double w = 0.0, r = 0.0, hit = 0.0;
    std::uint64_t wb = 0;
    double cap = 0.0;
    for (const WorkloadProfile& p : profiles) {
      const SimResult res = run({cell.cfg, TraceSpec::profile(p, accesses),
                                 RunOptions::with_seed(seed)});
      w += res.avg_write_ns();
      r += res.avg_read_ns();
      hit += res.tier_hit_rate();
      wb += res.tier_writebacks;
      cap = res.capacity_overhead;
    }
    const double n = static_cast<double>(profiles.size());
    t.add_row({cell.name, TextTable::fmt(w / n, 1), TextTable::fmt(r / n, 1),
               TextTable::fmt(100.0 * hit / n, 1), std::to_string(wb),
               TextTable::fmt(cap, 3)});
  }
  std::printf("%s\n", t.to_text().c_str());
  std::printf(
      "expected shape: the tier collapses both demand latencies toward DRAM\n"
      "timing at any reuse; the WOM cache alone only helps writes; together\n"
      "the tier serves the hits and the WOM cache absorbs the miss/eviction\n"
      "write stream; writethrough trades write latency for zero writeback\n"
      "traffic; random replacement trails LRU by a few hit points\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return tiering_main(KeyValueConfig::from_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ablation_tiering: %s\n", e.what());
    return 1;
  }
}
