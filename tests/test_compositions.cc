// The composition layer's contract (DESIGN.md section 9): every arch=
// preset names its composition, invalid compositions are rejected with
// actionable messages, the sweep helper enumerates only valid cells, and
// the novel compositions shipped in configs/ run end-to-end.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "arch/arch.h"
#include "sim/config_io.h"
#include "sim/experiment.h"

namespace wompcm {
namespace {

// Small platform: equivalence only needs every code path, not paper scale.
SimConfig small_config() {
  SimConfig cfg = paper_config();
  cfg.geom.ranks = 2;
  cfg.geom.banks_per_rank = 4;
  cfg.geom.rows_per_bank = 2048;
  return cfg;
}

// Every arch= preset parses to its composition and survives describe():
// the config keys are the only spelling of a design, so a preset reloaded
// from its description must be the same design.
TEST(ArchPresets, EveryPresetParsesAndRoundTripsThroughDescribe) {
  const std::vector<std::pair<std::string, Composition>> expected = {
      {"pcm",
       {CodingKind::kRaw, false, CodingKind::kWomWide, RefreshKind::kNone}},
      {"wom",
       {CodingKind::kWomWide, false, CodingKind::kWomWide, RefreshKind::kNone}},
      {"refresh",
       {CodingKind::kWomWide, false, CodingKind::kWomWide, RefreshKind::kRat}},
      {"wcpcm",
       {CodingKind::kRaw, true, CodingKind::kWomWide, RefreshKind::kRat}},
      {"fnw",
       {CodingKind::kFlipNWrite, false, CodingKind::kWomWide,
        RefreshKind::kNone}},
      {"symmetric",
       {CodingKind::kSymmetric, false, CodingKind::kWomWide,
        RefreshKind::kNone}},
  };
  ASSERT_EQ(arch_presets().size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const auto& [name, comp] = expected[i];
    SCOPED_TRACE(name);
    EXPECT_EQ(arch_presets()[i].name, name);
    EXPECT_EQ(arch_preset(name), comp);
    EXPECT_EQ(validate_composition(comp), comp);  // valid and normalized

    const SimConfig cfg = apply_overrides(
        paper_config(), KeyValueConfig::from_tokens({"arch=" + name}));
    EXPECT_EQ(cfg.arch.composition, comp);
    // Reload the description over a different design.
    SimConfig other = paper_config();
    other.arch.composition = arch_preset(name == "wcpcm" ? "fnw" : "wcpcm");
    std::vector<std::string> tokens;
    std::istringstream is(describe(cfg));
    for (std::string tok; is >> tok;) tokens.push_back(tok);
    EXPECT_EQ(
        apply_overrides(other, KeyValueConfig::from_tokens(tokens))
            .arch.composition,
        comp);
  }
  EXPECT_THROW(arch_preset("dram"), std::invalid_argument);
}

TEST(CompositionEquivalence, WomCacheRowEntryPreservesGoldens) {
  // The WOM cache keeps one entry per cache row (occupant bank, valid and
  // dead bits, line-valid bits; arch/cache_layer.h). The WCPCM cell — the
  // composition that actually exercises tag lookups, victim write-backs and
  // dead-row invalidation — must run with the cache in play, faults on and
  // off, on a two-channel platform. The paper-scale
  // golden snapshot itself is pinned by GoldenEquivalence in
  // test_reproduction.cc, and the two-channel books by the registry
  // corpus.
  const WorkloadProfile profile = *find_profile("401.bzip2");
  for (const bool faults : {false, true}) {
    SimConfig cfg = small_config();
    cfg.geom.channels = 2;
    cfg.arch.composition = arch_preset("wcpcm");
    cfg.arch.code = "rs23-inv";
    if (faults) {
      cfg.fault.enabled = true;
      cfg.fault.seed = 7;
      cfg.fault.endurance = 400;
      cfg.fault.sigma = 0.35;
      cfg.fault.initial_wear = 0.75;
      cfg.fault.spare_rows = 4;
      cfg.fault.read_disturb = 0.0005;
    }
    SCOPED_TRACE(std::string("faults=") + (faults ? "on" : "off"));

    RunRequest req;
    req.config = cfg;
    req.trace = TraceSpec::profile(profile, 4000);
    req.options = RunOptions::with_seed(11);
    const SimResult r = run(req);

    // The cache is genuinely in play, not silently bypassed.
    const auto& counters = r.stats.counters.all();
    EXPECT_NE(counters.find("wcpcm.write_misses"), counters.end());
  }
}

TEST(CompositionValidity, RejectsRefreshWithoutAnyWomRegion) {
  for (const CodingKind main : {CodingKind::kRaw, CodingKind::kFlipNWrite,
                                CodingKind::kSymmetric}) {
    Composition c{main, false, CodingKind::kWomWide, RefreshKind::kRat};
    std::string why;
    EXPECT_FALSE(composition_valid(c, &why)) << to_string(main);
    EXPECT_NE(why.find("WOM-coded region"), std::string::npos) << why;
    EXPECT_THROW(validate_composition(c), std::invalid_argument);
  }
  // A WOM-coded cache alone satisfies the refresh requirement.
  Composition ok{CodingKind::kRaw, true, CodingKind::kWomWide,
                 RefreshKind::kRat};
  EXPECT_TRUE(composition_valid(ok));
}

TEST(CompositionValidity, RejectsHiddenPageCache) {
  Composition c{CodingKind::kRaw, true, CodingKind::kWomHidden,
                RefreshKind::kRat};
  std::string why;
  EXPECT_FALSE(composition_valid(c, &why));
  EXPECT_NE(why.find("cache.coding=wom-wide"), std::string::npos) << why;
  EXPECT_THROW(validate_composition(c), std::invalid_argument);
}

TEST(CompositionValidity, NormalizesDisabledCacheCoding) {
  const Composition c = validate_composition(
      {CodingKind::kWomWide, false, CodingKind::kFlipNWrite,
       RefreshKind::kNone});
  EXPECT_EQ(c.cache_coding, CodingKind::kWomWide);
}

TEST(CompositionSweep, EnumeratesOnlyValidCells) {
  const std::vector<CodingKind> mains = {
      CodingKind::kRaw, CodingKind::kWomWide, CodingKind::kWomHidden,
      CodingKind::kFlipNWrite, CodingKind::kSymmetric};
  const auto archs = composition_sweep(mains, {false, true},
                                       {RefreshKind::kNone, RefreshKind::kRat});
  // 5 x 2 x 2 = 20 cells minus the 3 cacheless non-WOM mains with refresh.
  EXPECT_EQ(archs.size(), 17u);
  for (const ArchConfig& a : archs) {
    EXPECT_TRUE(composition_valid(a.composition));
    EXPECT_EQ(a.code, "rs23-inv");
  }
}

TEST(CompositionSweep, RunsThroughTheSweepHarness) {
  const auto archs = composition_sweep(
      {CodingKind::kRaw, CodingKind::kFlipNWrite}, {true},
      {RefreshKind::kRat});
  ASSERT_EQ(archs.size(), 2u);
  const std::vector<WorkloadProfile> profiles = {*find_profile("401.bzip2")};
  RunRequest req;
  req.config = small_config();
  req.trace = TraceSpec::profile(WorkloadProfile{}, 1500);
  req.options.seed = 3;
  const auto rows = run_sweep(req, archs, profiles);
  ASSERT_EQ(rows.size(), 1u);
  ASSERT_EQ(rows[0].results.size(), 2u);
  EXPECT_EQ(rows[0].results[0].arch_name, "wcpcm[rs23-inv]");
  EXPECT_EQ(rows[0].results[1].arch_name,
            "composed[main=fnw,cache=wom-wide,refresh=rat,code=rs23-inv]");
}

// The three novel compositions shipped in configs/ run end-to-end from
// their files (ISSUE: fnw+cache, hidden-page+refresh+cache,
// symmetric+cache).
struct NovelCase {
  const char* file;
  const char* arch_name;
};

TEST(NovelCompositions, RunEndToEndFromConfigFiles) {
  const NovelCase cases[] = {
      {"/configs/fnw_wom_cache.cfg",
       "composed[main=fnw,cache=wom-wide,refresh=rat,code=rs23-inv]"},
      {"/configs/hidden_refresh_cache.cfg",
       "composed[main=wom-hidden,cache=wom-wide,refresh=rat,code=rs23-inv]"},
      {"/configs/symmetric_cache.cfg",
       "composed[main=symmetric,cache=wom-wide,refresh=rat,code=rs23-inv]"},
  };
  const WorkloadProfile profile = *find_profile("401.bzip2");
  for (const NovelCase& nc : cases) {
    SCOPED_TRACE(nc.file);
    const SimConfig cfg =
        load_config_file(paper_config(), WOMPCM_REPO_DIR + std::string(nc.file));
    const SimResult r = run(
        {cfg, TraceSpec::profile(profile, 3000), RunOptions::with_seed(5)});
    EXPECT_EQ(r.arch_name, nc.arch_name);
    EXPECT_GT(r.capacity_overhead, 0.0);
    EXPECT_GT(r.stats.demand_write_latency.count(), 0u);
    // The cache is in front: demand writes hit the per-rank WOM arrays.
    EXPECT_GT(r.stats.counters.get("wcpcm.write_hits") +
                  r.stats.counters.get("wcpcm.write_misses"),
              0u);
  }
}

// The sectioned code families as composition cells, faults on and off: the
// per-section budget must be in play, and the codec observability counters
// must surface in the SimResult.
TEST(SectionedCells, GoldensWithFaultsOnAndOff) {
  struct Cell {
    const char* label;
    Composition comp;
    const char* code;       // legacy code= key (cache region)
    bool lut;               // main region encode runs the LUT fast path
  };
  const Cell cells[] = {
      {"polar-main",
       {CodingKind::kPolar, false, CodingKind::kWomWide, RefreshKind::kRat},
       "",
       false},
      {"tsc-main+wom-cache",
       {CodingKind::kTsConstrained, true, CodingKind::kWomWide,
        RefreshKind::kRat},
       "rs23-inv",
       true},
  };
  const WorkloadProfile profile = *find_profile("401.bzip2");
  for (const Cell& cell : cells) {
    for (const bool faults : {false, true}) {
      SimConfig cfg = small_config();
      cfg.geom.channels = 2;
      cfg.arch.composition = validate_composition(cell.comp);
      cfg.arch.code = cell.code;
      if (faults) {
        cfg.fault.enabled = true;
        cfg.fault.seed = 7;
        cfg.fault.endurance = 400;
        cfg.fault.sigma = 0.35;
        cfg.fault.initial_wear = 0.75;
        cfg.fault.spare_rows = 4;
        cfg.fault.read_disturb = 0.0005;
      }
      SCOPED_TRACE(std::string(cell.label) + "/faults=" +
                   (faults ? "on" : "off"));

      RunRequest req;
      req.config = cfg;
      req.trace = TraceSpec::profile(profile, 4000);
      req.options = RunOptions::with_seed(11);
      const SimResult r = run(req);

      // The per-section budget is genuinely in play: in-budget rewrites
      // outnumber alpha re-inits (t = 8 for both shipped cells, so the
      // fast:alpha ratio is far above the rs23 cell's 1:1).
      const auto& counters = r.stats.counters;
      EXPECT_GT(counters.get("writes.fast"), counters.get("writes.alpha"));
      // The LUT observability counters surface in the result.
      if (cell.lut) {
        EXPECT_GT(counters.get("codec.lut_hits"), 0u);
      } else {
        EXPECT_GT(counters.get("codec.lut_fallbacks"), 0u);
      }
    }
  }
}

TEST(SectionedCells, NewConfigFilesRunEndToEnd) {
  const WorkloadProfile profile = *find_profile("401.bzip2");
  {
    const SimConfig cfg = load_config_file(
        paper_config(), WOMPCM_REPO_DIR "/configs/polar.cfg");
    const SimResult r = run(
        {cfg, TraceSpec::profile(profile, 3000), RunOptions::with_seed(5)});
    EXPECT_EQ(r.arch_name, "composed[main=polar,refresh=rat,code=polar-m7-inv]");
    // 64 sections of <2^8>^8/128 per 512-bit line: 15x capacity overhead.
    EXPECT_DOUBLE_EQ(r.capacity_overhead, 15.0);
    EXPECT_GT(r.stats.counters.get("writes.fast"), 0u);
    EXPECT_GT(r.stats.counters.get("codec.lut_fallbacks"), 0u);
  }
  {
    const SimConfig cfg = load_config_file(
        paper_config(), WOMPCM_REPO_DIR "/configs/ts_constrained.cfg");
    const SimResult r = run(
        {cfg, TraceSpec::profile(profile, 3000), RunOptions::with_seed(5)});
    EXPECT_EQ(r.arch_name,
              "composed[main=ts-constrained,cache=wom-wide,refresh=rat,"
              "main.code=tsc-rs23x4-inv,cache.code=rs23-inv]");
    EXPECT_GT(r.stats.counters.get("wcpcm.write_hits") +
                  r.stats.counters.get("wcpcm.write_misses"),
              0u);
    EXPECT_GT(r.stats.counters.get("codec.lut_hits"), 0u);
  }
}

TEST(NovelCompositions, HiddenMainPlusCacheChargesHiddenExtrasOnMisses) {
  // Hidden-page main behind a cache still pays the hidden-page extra
  // accesses when a read misses the cache or a victim lands in main memory.
  const SimConfig cfg = load_config_file(
      paper_config(), WOMPCM_REPO_DIR "/configs/hidden_refresh_cache.cfg");
  const SimResult r =
      run({cfg, TraceSpec::profile(*find_profile("401.bzip2"), 3000),
           RunOptions::with_seed(5)});
  // Read misses are served by the hidden-page main array (extra tag read);
  // victim write-backs program its hidden page as well.
  EXPECT_GT(r.stats.counters.get("hidden_page.extra_reads"), 0u);
  EXPECT_GT(r.stats.counters.get("hidden_page.extra_writes"), 0u);
}

}  // namespace
}  // namespace wompcm
