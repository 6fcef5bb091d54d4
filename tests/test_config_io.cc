// Tests of the SimConfig key=value dialect and round-tripping.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>

#include "sim/config_io.h"
#include "sim/experiment.h"

namespace wompcm {
namespace {

TEST(ConfigIo, GeometryAndTimingOverrides) {
  const auto kv = KeyValueConfig::from_tokens(
      {"ranks=4", "banks=8", "rows=1024", "row_write=200", "reset=30"});
  const SimConfig cfg = apply_overrides(paper_config(), kv);
  EXPECT_EQ(cfg.geom.ranks, 4u);
  EXPECT_EQ(cfg.geom.banks_per_rank, 8u);
  EXPECT_EQ(cfg.geom.rows_per_bank, 1024u);
  EXPECT_EQ(cfg.timing.row_write_ns, 200u);
  EXPECT_EQ(cfg.timing.reset_ns, 30u);
  // Untouched fields keep the paper defaults.
  EXPECT_EQ(cfg.geom.cols_per_row, 2048u);
  EXPECT_EQ(cfg.timing.row_read_ns, 27u);
}

TEST(ConfigIo, ArchitectureSelection) {
  for (const ArchPreset& p : arch_presets()) {
    const auto kv = KeyValueConfig::from_tokens({std::string("arch=") + p.name});
    EXPECT_EQ(apply_overrides(paper_config(), kv).arch.composition,
              p.composition)
        << p.name;
  }
}

TEST(ConfigIo, PolicyKnobs) {
  const auto kv = KeyValueConfig::from_tokens(
      {"policy=read-priority", "row_policy=closed", "rth=0.25",
       "pausing=false", "start_gap=true",
       "start_gap_interval=64", "warmup=100", "read_forwarding=false"});
  const SimConfig cfg = apply_overrides(paper_config(), kv);
  EXPECT_EQ(cfg.sched.policy, SchedulingPolicy::kReadPriority);
  EXPECT_EQ(cfg.row_policy, RowPolicy::kClosed);
  EXPECT_DOUBLE_EQ(cfg.refresh.threshold, 0.25);
  EXPECT_FALSE(cfg.refresh.write_pausing);
  EXPECT_TRUE(cfg.arch.start_gap);
  EXPECT_EQ(cfg.arch.start_gap_interval, 64u);
  ASSERT_TRUE(cfg.warmup_accesses.has_value());
  EXPECT_EQ(*cfg.warmup_accesses, 100u);
  EXPECT_FALSE(cfg.read_forwarding);
}

TEST(ConfigIo, OrganizationKeyIsRejected) {
  // The hidden-page organization is a main coding: main.coding=wom-hidden.
  try {
    apply_overrides(paper_config(),
                    KeyValueConfig::from_tokens({"organization=hidden"}));
    FAIL() << "organization= accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("unknown key 'organization'"),
              std::string::npos)
        << e.what();
  }
}

TEST(ConfigIo, StartGapWithCacheFailsTheRun) {
  // Start-Gap remaps main rows, which the row-indexed WOM-cache cannot
  // follow: the combination is an error naming both keys, not a silent
  // no-op.
  const SimConfig cfg = apply_overrides(
      paper_config(),
      KeyValueConfig::from_tokens({"arch=wcpcm", "start_gap=true"}));
  try {
    (void)run({cfg, TraceSpec::profile(*find_profile("401.bzip2"), 100),
               RunOptions::with_seed(1)});
    FAIL() << "start_gap=true with cache.enabled=true ran";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("start_gap"), std::string::npos) << msg;
    EXPECT_NE(msg.find("cache.enabled"), std::string::npos) << msg;
  }
}

TEST(ConfigIo, UnknownKeysRejectedWithNearestSuggestion) {
  // A typo must not silently run the default configuration; the error names
  // the offending key and the nearest valid one.
  try {
    apply_overrides(paper_config(),
                    KeyValueConfig::from_tokens({"scanlimit=4"}));
    FAIL() << "unknown key accepted";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("'scanlimit'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("'scan_limit'"), std::string::npos) << msg;
  }
  EXPECT_THROW(apply_overrides(paper_config(),
                               KeyValueConfig::from_tokens({"rankz=4"})),
               std::invalid_argument);
  // No key is within a third of the typo's length: no hint, rather than
  // one that points at an unrelated key.
  try {
    apply_overrides(paper_config(),
                    KeyValueConfig::from_tokens({"scan_mode=indexed"}));
    FAIL() << "unknown key accepted";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("'scan_mode'"), std::string::npos) << msg;
    EXPECT_EQ(msg.find("did you mean"), std::string::npos) << msg;
  }
}

TEST(ConfigIo, HarnessKeysAreExempt) {
  // Keys owned by the calling tool (trace length, benchmark choice, ...)
  // are declared by the harness and skipped; everything else stays strict.
  const auto kv =
      KeyValueConfig::from_tokens({"accesses=5000", "benchmark=qsort"});
  const SimConfig cfg =
      apply_overrides(paper_config(), kv, {"accesses", "benchmark"});
  EXPECT_EQ(cfg.geom.ranks, 16u);
  EXPECT_THROW(apply_overrides(paper_config(), kv, {"accesses"}),
               std::invalid_argument);
  // The suggestion also considers the harness's own keys.
  try {
    apply_overrides(paper_config(),
                    KeyValueConfig::from_tokens({"acesses=5000"}),
                    {"accesses"});
    FAIL() << "unknown key accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("accesses"), std::string::npos)
        << e.what();
  }
}

TEST(ConfigIo, FaultKeysParse) {
  const auto kv = KeyValueConfig::from_tokens(
      {"fault.enabled=true", "fault.seed=99", "fault.endurance=500",
       "fault.sigma=0.5", "fault.initial_wear=0.9", "fault.max_retries=7",
       "fault.spare_rows=8", "fault.read_disturb=0.001"});
  const SimConfig cfg = apply_overrides(paper_config(), kv);
  EXPECT_TRUE(cfg.fault.enabled);
  EXPECT_EQ(cfg.fault.seed, 99u);
  EXPECT_DOUBLE_EQ(cfg.fault.endurance, 500.0);
  EXPECT_DOUBLE_EQ(cfg.fault.sigma, 0.5);
  EXPECT_DOUBLE_EQ(cfg.fault.initial_wear, 0.9);
  EXPECT_EQ(cfg.fault.max_retries, 7u);
  EXPECT_EQ(cfg.fault.spare_rows, 8u);
  EXPECT_DOUBLE_EQ(cfg.fault.read_disturb, 0.001);
}

TEST(ConfigIo, FaultKeysRejectBadValues) {
  for (const char* tok :
       {"fault.enabled=2", "fault.endurance=0", "fault.endurance=-1",
        "fault.sigma=-0.1", "fault.initial_wear=-0.5", "fault.max_retries=0",
        "fault.max_retries=4294967296", "fault.read_disturb=1.5",
        "fault.read_disturb=-0.1"}) {
    EXPECT_THROW(apply_overrides(paper_config(),
                                 KeyValueConfig::from_tokens({tok})),
                 std::invalid_argument)
        << tok;
  }
}

TEST(ConfigIo, TierKeysParse) {
  const auto kv = KeyValueConfig::from_tokens(
      {"tier.enabled=true", "tier.sets=512", "tier.ways=4",
       "tier.replacement=fifo", "tier.write_policy=writethrough",
       "tier.hit_read=12", "tier.hit_write=18", "tier.port=2",
       "tier.fault.enabled=true", "tier.fault.seed=77",
       "tier.fault.rate=0.125"});
  const SimConfig cfg = apply_overrides(paper_config(), kv);
  EXPECT_TRUE(cfg.tier.enabled);
  EXPECT_EQ(cfg.tier.sets, 512u);
  EXPECT_EQ(cfg.tier.ways, 4u);
  EXPECT_EQ(cfg.tier.replacement, ReplacementKind::kFifo);
  EXPECT_EQ(cfg.tier.write_policy, TierWritePolicy::kWritethrough);
  EXPECT_EQ(cfg.tier.timing.hit_read_ns, 12u);
  EXPECT_EQ(cfg.tier.timing.hit_write_ns, 18u);
  EXPECT_EQ(cfg.tier.timing.port_ns, 2u);
  EXPECT_TRUE(cfg.tier.fault.enabled);
  EXPECT_EQ(cfg.tier.fault.seed, 77u);
  EXPECT_DOUBLE_EQ(cfg.tier.fault.frame_fail_rate, 0.125);
}

TEST(ConfigIo, TierKeysRejectBadValues) {
  for (const char* tok :
       {"tier.enabled=2", "tier.sets=0", "tier.ways=0",
        "tier.replacement=plru", "tier.write_policy=writearound",
        "tier.hit_read=0", "tier.hit_write=0", "tier.port=-1",
        "tier.fault.rate=1.5", "tier.fault.rate=-0.1"}) {
    EXPECT_THROW(apply_overrides(paper_config(),
                                 KeyValueConfig::from_tokens({tok})),
                 std::invalid_argument)
        << tok;
  }
}

TEST(ConfigIo, TierRejectsBankTagReplacement) {
  // bank_tag is not a replacement scheme (the WOM cache is direct-mapped
  // by row and replaces nothing by choice): it fails as any unknown
  // spelling does, and the tier takes lru, fifo or random.
  try {
    apply_overrides(paper_config(), KeyValueConfig::from_tokens(
                                        {"tier.replacement=bank_tag"}));
    FAIL() << "bank_tag accepted as a tier policy";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "bad value for tier.replacement: bank_tag"),
              std::string::npos)
        << e.what();
  }
}

TEST(ConfigIo, BadValuesThrow) {
  EXPECT_THROW(apply_overrides(paper_config(),
                               KeyValueConfig::from_tokens({"arch=dram"})),
               std::invalid_argument);
  EXPECT_THROW(apply_overrides(paper_config(),
                               KeyValueConfig::from_tokens({"rth=1.5"})),
               std::invalid_argument);
  EXPECT_THROW(
      apply_overrides(paper_config(),
                      KeyValueConfig::from_tokens({"row_policy=semiopen"})),
      std::invalid_argument);
  EXPECT_THROW(apply_overrides(paper_config(),
                               KeyValueConfig::from_tokens({"reset=0"})),
               std::invalid_argument);
}

TEST(ConfigIo, DescribeRoundTripsThroughFile) {
  SimConfig cfg = paper_config();
  cfg.arch.composition = arch_preset("wcpcm");
  cfg.geom.ranks = 4;
  cfg.row_policy = RowPolicy::kClosed;
  cfg.refresh.threshold = 0.1;
  cfg.warmup_accesses = 777;

  const auto path = (std::filesystem::temp_directory_path() /
                     "womcode_pcm_cfg_roundtrip.cfg")
                        .string();
  {
    std::ofstream f(path);
    f << "# generated by test\n" << describe(cfg);
  }
  const SimConfig back = load_config_file(paper_config(), path);
  EXPECT_EQ(back.arch.composition, arch_preset("wcpcm"));
  EXPECT_EQ(back.geom.ranks, 4u);
  EXPECT_EQ(back.row_policy, RowPolicy::kClosed);
  EXPECT_DOUBLE_EQ(back.refresh.threshold, 0.1);
  ASSERT_TRUE(back.warmup_accesses.has_value());
  EXPECT_EQ(*back.warmup_accesses, 777u);
  std::filesystem::remove(path);
}

TEST(ConfigIo, EveryFieldRoundTripsThroughDescribe) {
  // Set every SimConfig field to a non-default value, write describe() to a
  // file, load it over pristine defaults, and compare field by field. A new
  // SimConfig field that is missing from apply_overrides()/describe() fails
  // here instead of silently falling back to its default.
  SimConfig cfg = paper_config();
  cfg.geom.channels = 2;
  cfg.geom.ranks = 4;
  cfg.geom.banks_per_rank = 8;
  cfg.geom.rows_per_bank = 1024;
  cfg.geom.cols_per_row = 256;
  cfg.geom.bits_per_col = 2;
  cfg.geom.devices_per_rank = 8;
  cfg.geom.burst_length = 16;
  cfg.geom.mapping = AddressMapping::kRankBankRowCol;
  cfg.timing.row_read_ns = 31;
  cfg.timing.row_write_ns = 177;
  cfg.timing.reset_ns = 35;
  cfg.timing.set_ns = 160;
  cfg.timing.col_read_ns = 11;
  cfg.timing.burst_length = 16;  // "burst" keeps geom and timing in sync
  cfg.timing.refresh_period_ns = 5000;
  cfg.timing.tag_check_ns = 3;
  cfg.timing.pause_resume_ns = 7;
  cfg.arch.composition = validate_composition(
      {CodingKind::kFlipNWrite, true, CodingKind::kWomWide, RefreshKind::kRat});
  cfg.arch.code = "rs23";
  cfg.arch.main_code = "polar-m7-inv";
  cfg.arch.cache_code = "tsc-rs23x4-inv";
  cfg.arch.rat_entries = 9;
  cfg.arch.fnw_fast_fraction = 0.25;
  cfg.arch.seed = 1234;
  cfg.arch.start_gap = true;
  cfg.arch.start_gap_interval = 256;
  cfg.refresh.enabled = false;
  cfg.refresh.threshold = 0.125;
  cfg.refresh.write_pausing = false;
  cfg.refresh.require_empty_queues = true;
  cfg.sched.policy = SchedulingPolicy::kReadPriority;
  cfg.sched.write_q_high = 40;
  cfg.sched.write_q_low = 10;
  cfg.sched.row_hit_first = false;
  cfg.sched.scan_limit = 12;
  cfg.row_policy = RowPolicy::kClosed;
  cfg.queue_capacity = 77;  // per-channel bound
  cfg.read_forwarding = false;
  cfg.warmup_accesses = 555;
  cfg.fault.enabled = true;
  cfg.fault.seed = 31337;
  cfg.fault.endurance = 1500;
  cfg.fault.sigma = 0.75;
  cfg.fault.initial_wear = 0.5;
  cfg.fault.max_retries = 5;
  cfg.fault.spare_rows = 12;
  cfg.fault.read_disturb = 0.0625;
  cfg.tier.enabled = true;
  cfg.tier.sets = 512;
  cfg.tier.ways = 4;
  cfg.tier.replacement = ReplacementKind::kRandom;
  cfg.tier.write_policy = TierWritePolicy::kWritethrough;
  cfg.tier.timing.hit_read_ns = 13;
  cfg.tier.timing.hit_write_ns = 17;
  cfg.tier.timing.port_ns = 6;
  cfg.tier.fault.enabled = true;
  cfg.tier.fault.seed = 271828;
  cfg.tier.fault.frame_fail_rate = 0.03125;

  const auto path = (std::filesystem::temp_directory_path() /
                     "womcode_pcm_cfg_every_field.cfg")
                        .string();
  {
    std::ofstream f(path);
    f << describe(cfg);
  }
  const SimConfig back = load_config_file(paper_config(), path);
  std::filesystem::remove(path);

  EXPECT_EQ(back.geom.channels, 2u);
  EXPECT_EQ(back.geom.ranks, 4u);
  EXPECT_EQ(back.geom.banks_per_rank, 8u);
  EXPECT_EQ(back.geom.rows_per_bank, 1024u);
  EXPECT_EQ(back.geom.cols_per_row, 256u);
  EXPECT_EQ(back.geom.bits_per_col, 2u);
  EXPECT_EQ(back.geom.devices_per_rank, 8u);
  EXPECT_EQ(back.geom.burst_length, 16u);
  EXPECT_EQ(back.geom.mapping, AddressMapping::kRankBankRowCol);
  EXPECT_EQ(back.timing.row_read_ns, 31u);
  EXPECT_EQ(back.timing.row_write_ns, 177u);
  EXPECT_EQ(back.timing.reset_ns, 35u);
  EXPECT_EQ(back.timing.set_ns, 160u);
  EXPECT_EQ(back.timing.col_read_ns, 11u);
  EXPECT_EQ(back.timing.burst_length, 16u);
  EXPECT_EQ(back.timing.refresh_period_ns, 5000u);
  EXPECT_EQ(back.timing.tag_check_ns, 3u);
  EXPECT_EQ(back.timing.pause_resume_ns, 7u);
  EXPECT_EQ(back.arch.composition,
            (Composition{CodingKind::kFlipNWrite, true, CodingKind::kWomWide,
                         RefreshKind::kRat}));
  EXPECT_EQ(back.arch.code, "rs23");
  EXPECT_EQ(back.arch.main_code, "polar-m7-inv");
  EXPECT_EQ(back.arch.cache_code, "tsc-rs23x4-inv");
  EXPECT_EQ(back.arch.rat_entries, 9u);
  EXPECT_DOUBLE_EQ(back.arch.fnw_fast_fraction, 0.25);
  EXPECT_EQ(back.arch.seed, 1234u);
  EXPECT_TRUE(back.arch.start_gap);
  EXPECT_EQ(back.arch.start_gap_interval, 256u);
  EXPECT_FALSE(back.refresh.enabled);
  EXPECT_DOUBLE_EQ(back.refresh.threshold, 0.125);
  EXPECT_FALSE(back.refresh.write_pausing);
  EXPECT_TRUE(back.refresh.require_empty_queues);
  EXPECT_EQ(back.sched.policy, SchedulingPolicy::kReadPriority);
  EXPECT_EQ(back.sched.write_q_high, 40u);
  EXPECT_EQ(back.sched.write_q_low, 10u);
  EXPECT_FALSE(back.sched.row_hit_first);
  EXPECT_EQ(back.sched.scan_limit, 12u);
  EXPECT_EQ(back.row_policy, RowPolicy::kClosed);
  EXPECT_EQ(back.queue_capacity, 77u);
  EXPECT_FALSE(back.read_forwarding);
  ASSERT_TRUE(back.warmup_accesses.has_value());
  EXPECT_EQ(*back.warmup_accesses, 555u);
  EXPECT_TRUE(back.fault.enabled);
  EXPECT_EQ(back.fault.seed, 31337u);
  EXPECT_DOUBLE_EQ(back.fault.endurance, 1500.0);
  EXPECT_DOUBLE_EQ(back.fault.sigma, 0.75);
  EXPECT_DOUBLE_EQ(back.fault.initial_wear, 0.5);
  EXPECT_EQ(back.fault.max_retries, 5u);
  EXPECT_EQ(back.fault.spare_rows, 12u);
  EXPECT_DOUBLE_EQ(back.fault.read_disturb, 0.0625);
  EXPECT_TRUE(back.tier.enabled);
  EXPECT_EQ(back.tier.sets, 512u);
  EXPECT_EQ(back.tier.ways, 4u);
  EXPECT_EQ(back.tier.replacement, ReplacementKind::kRandom);
  EXPECT_EQ(back.tier.write_policy, TierWritePolicy::kWritethrough);
  EXPECT_EQ(back.tier.timing.hit_read_ns, 13u);
  EXPECT_EQ(back.tier.timing.hit_write_ns, 17u);
  EXPECT_EQ(back.tier.timing.port_ns, 6u);
  EXPECT_TRUE(back.tier.fault.enabled);
  EXPECT_EQ(back.tier.fault.seed, 271828u);
  EXPECT_DOUBLE_EQ(back.tier.fault.frame_fail_rate, 0.03125);
}

TEST(ConfigIo, CompositionKeysBuildOnTheCanonicalComposition) {
  // refresh=rat on top of arch=wom yields the refresh preset.
  const SimConfig cfg = apply_overrides(
      paper_config(),
      KeyValueConfig::from_tokens({"arch=wom", "refresh=rat"}));
  EXPECT_EQ(cfg.arch.composition, arch_preset("refresh"));
}

TEST(ConfigIo, CompositionKeysExpressNovelDesigns) {
  const SimConfig cfg = apply_overrides(
      paper_config(),
      KeyValueConfig::from_tokens({"main.coding=fnw", "cache.enabled=true",
                                   "cache.coding=wom-wide", "refresh=rat"}));
  EXPECT_EQ(cfg.arch.composition,
            (Composition{CodingKind::kFlipNWrite, true, CodingKind::kWomWide,
                         RefreshKind::kRat}));
}

TEST(ConfigIo, DisabledCacheNormalizesItsCoding) {
  const SimConfig cfg = apply_overrides(
      paper_config(),
      KeyValueConfig::from_tokens({"main.coding=wom-hidden",
                                   "cache.enabled=false", "refresh=none"}));
  EXPECT_EQ(cfg.arch.composition.cache_coding, CodingKind::kWomWide);
}

TEST(ConfigIo, ArchKeyResetsAnExplicitComposition) {
  // "arch=" sets all four axes, replacing whatever composition the base
  // carried.
  const SimConfig base = apply_overrides(
      paper_config(), KeyValueConfig::from_tokens({"main.coding=symmetric"}));
  const SimConfig cfg =
      apply_overrides(base, KeyValueConfig::from_tokens({"arch=wcpcm"}));
  EXPECT_EQ(cfg.arch.composition, arch_preset("wcpcm"));
}

TEST(ConfigIo, RejectsInvalidCompositionsWithActionableErrors) {
  // RAT refresh with no WOM-coded region anywhere.
  try {
    apply_overrides(paper_config(),
                    KeyValueConfig::from_tokens({"refresh=rat"}));
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("WOM-coded region"),
              std::string::npos)
        << e.what();
  }
  // A hidden-page cache has no hidden page region to pair with.
  try {
    apply_overrides(
        paper_config(),
        KeyValueConfig::from_tokens({"arch=wcpcm",
                                     "cache.coding=wom-hidden"}));
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("cache.coding=wom-wide"),
              std::string::npos)
        << e.what();
  }
}

TEST(ConfigIo, RejectsBadCompositionValues) {
  for (const char* tok :
       {"main.coding=womwide", "cache.enabled=2", "cache.coding=raw2",
        "refresh=sometimes"}) {
    EXPECT_THROW(apply_overrides(paper_config(),
                                 KeyValueConfig::from_tokens({tok})),
                 std::invalid_argument)
        << tok;
  }
}

TEST(ConfigIo, BurstKeepsGeometryAndTimingInSync) {
  const SimConfig cfg = apply_overrides(
      paper_config(), KeyValueConfig::from_tokens({"burst=16"}));
  EXPECT_EQ(cfg.geom.burst_length, 16u);
  EXPECT_EQ(cfg.timing.burst_length, 16u);
  EXPECT_EQ(cfg.timing.burst_ns(), 8u);
}

TEST(ConfigIo, NewKnobsRejectBadValues) {
  for (const char* tok :
       {"mapping=col:row", "row_hit_first=maybe", "refresh_enabled=2",
        "require_empty_queues=x", "tag_check=0", "pause_resume=-1",
        "channels=4294967298", "queue_capacity=4294967296", "fnw_fast=nan",
        "rth=nan", "fault.sigma=inf"}) {
    EXPECT_THROW(apply_overrides(paper_config(),
                                 KeyValueConfig::from_tokens({tok})),
                 std::invalid_argument)
        << tok;
  }
}

TEST(ConfigIo, ZeroQueueCapacityAndInjectionBlockFailTheRun) {
  for (const std::string key : {"queue_capacity", "injection_block", "rat",
                                "start_gap_interval"}) {
    const SimConfig cfg = apply_overrides(
        paper_config(), KeyValueConfig::from_tokens({key + "=0"}));
    try {
      (void)run({cfg, TraceSpec::profile(*find_profile("401.bzip2"), 100),
                 RunOptions::with_seed(1)});
      ADD_FAILURE() << key << "=0 ran";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(key), std::string::npos)
          << e.what();
    }
  }
}

TEST(ConfigIo, MissingFileThrows) {
  EXPECT_THROW(load_config_file(paper_config(), "/no/such/file.cfg"),
               std::runtime_error);
}

TEST(ConfigIo, SymmetricArchRuns) {
  SimConfig cfg = apply_overrides(
      paper_config(), KeyValueConfig::from_tokens({"arch=symmetric"}));
  const SimResult r =
      run({cfg, TraceSpec::profile(*find_profile("401.bzip2"), 4000),
           RunOptions::with_seed(9)});
  EXPECT_EQ(r.arch_name, "symmetric-ideal");
  // Every write is RESET-fast: the symmetric ideal beats conventional PCM.
  SimConfig base = paper_config();
  const SimResult rb =
      run({base, TraceSpec::profile(*find_profile("401.bzip2"), 4000),
           RunOptions::with_seed(9)});
  EXPECT_LT(r.avg_write_ns(), rb.avg_write_ns());
}

}  // namespace
}  // namespace wompcm
