#include "sim/config_io.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace wompcm {

namespace {

// Every key apply_overrides() recognizes. Kept next to the handlers below;
// the EveryFieldRoundTripsThroughDescribe test catches a handler added
// without its describe() line, and the strict unknown-key check makes a
// key listed here but not handled (or vice versa) fail loudly in tests.
constexpr const char* kKnownKeys[] = {
    "channels", "ranks", "banks", "rows", "cols", "devices", "bits_per_col",
    "burst", "mapping", "row_read", "row_write", "reset", "set", "col_read",
    "refresh_period", "tag_check", "pause_resume", "arch", "code", "rat",
    "main.coding", "main.code", "cache.enabled", "cache.coding", "cache.code",
    "refresh", "refresh_enabled", "require_empty_queues", "rth",
    "pausing", "fnw_fast", "start_gap", "start_gap_interval", "seed",
    "policy", "write_q_high", "write_q_low", "row_hit_first", "scan_limit",
    "scan_mode", "row_policy", "queue_capacity", "read_forwarding",
    "injection_block", "warmup",
    "fault.enabled", "fault.seed", "fault.endurance", "fault.sigma",
    "fault.initial_wear", "fault.max_retries", "fault.spare_rows",
    "fault.read_disturb",
    "tier.enabled", "tier.sets", "tier.ways", "tier.replacement",
    "tier.write_policy", "tier.hit_read", "tier.hit_write", "tier.port",
    "tier.fault.enabled", "tier.fault.seed", "tier.fault.rate",
};

// Classic two-row Levenshtein distance; the keys are short, so this is
// only ever called on the error path.
std::size_t edit_distance(const std::string& a, const std::string& b) {
  std::vector<std::size_t> prev(b.size() + 1), cur(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) prev[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    cur[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t sub = prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, sub});
    }
    std::swap(prev, cur);
  }
  return prev[b.size()];
}

void reject_unknown_keys(const KeyValueConfig& kv,
                         const std::vector<std::string>& harness_keys) {
  for (const auto& [key, value] : kv.entries()) {
    (void)value;
    const auto known = [&key](const std::string& k) { return k == key; };
    if (std::any_of(std::begin(kKnownKeys), std::end(kKnownKeys), known) ||
        std::any_of(harness_keys.begin(), harness_keys.end(), known)) {
      continue;
    }
    // Suggest the nearest valid key (config keys first, then the harness's
    // own keys) so a typo points at its likely target.
    std::string nearest;
    std::size_t best = std::string::npos;
    const auto consider = [&](const std::string& cand) {
      const std::size_t d = edit_distance(key, cand);
      if (d < best) {
        best = d;
        nearest = cand;
      }
    };
    for (const char* k : kKnownKeys) consider(k);
    for (const std::string& k : harness_keys) consider(k);
    throw std::invalid_argument("config: unknown key '" + key +
                                "' (did you mean '" + nearest + "'?)");
  }
}

[[noreturn]] void bad(const std::string& key, const std::string& value) {
  throw std::invalid_argument("config: bad value for " + key + ": " + value);
}

unsigned get_unsigned(const KeyValueConfig& kv, const std::string& key,
                      unsigned fallback) {
  if (!kv.has(key)) return fallback;
  const auto v = kv.get_int(key);
  if (!v || *v < 0) bad(key, kv.get_string_or(key, ""));
  return static_cast<unsigned>(*v);
}

Tick get_tick(const KeyValueConfig& kv, const std::string& key,
              Tick fallback) {
  if (!kv.has(key)) return fallback;
  const auto v = kv.get_int(key);
  if (!v || *v <= 0) bad(key, kv.get_string_or(key, ""));
  return static_cast<Tick>(*v);
}

}  // namespace

SimConfig apply_overrides(SimConfig cfg, const KeyValueConfig& kv,
                          const std::vector<std::string>& harness_keys) {
  reject_unknown_keys(kv, harness_keys);

  // Geometry.
  cfg.geom.channels = get_unsigned(kv, "channels", cfg.geom.channels);
  cfg.geom.ranks = get_unsigned(kv, "ranks", cfg.geom.ranks);
  cfg.geom.banks_per_rank = get_unsigned(kv, "banks", cfg.geom.banks_per_rank);
  cfg.geom.rows_per_bank = get_unsigned(kv, "rows", cfg.geom.rows_per_bank);
  cfg.geom.cols_per_row = get_unsigned(kv, "cols", cfg.geom.cols_per_row);
  cfg.geom.devices_per_rank =
      get_unsigned(kv, "devices", cfg.geom.devices_per_rank);
  cfg.geom.bits_per_col =
      get_unsigned(kv, "bits_per_col", cfg.geom.bits_per_col);
  // One burst-length knob: the geometry's line size and the bus-occupancy
  // model describe the same DDR3 burst, so "burst" sets both.
  cfg.geom.burst_length = get_unsigned(kv, "burst", cfg.geom.burst_length);
  cfg.timing.burst_length = get_unsigned(kv, "burst", cfg.timing.burst_length);
  if (kv.has("mapping")) {
    const std::string m = kv.get_string_or("mapping", "");
    if (m == "row:rank:bank:col") {
      cfg.geom.mapping = AddressMapping::kRowRankBankCol;
    } else if (m == "row:bank:rank:col") {
      cfg.geom.mapping = AddressMapping::kRowBankRankCol;
    } else if (m == "rank:bank:row:col") {
      cfg.geom.mapping = AddressMapping::kRankBankRowCol;
    } else {
      bad("mapping", m);
    }
  }

  // Timing.
  cfg.timing.row_read_ns = get_tick(kv, "row_read", cfg.timing.row_read_ns);
  cfg.timing.row_write_ns = get_tick(kv, "row_write", cfg.timing.row_write_ns);
  cfg.timing.reset_ns = get_tick(kv, "reset", cfg.timing.reset_ns);
  cfg.timing.set_ns = get_tick(kv, "set", cfg.timing.set_ns);
  cfg.timing.col_read_ns = get_tick(kv, "col_read", cfg.timing.col_read_ns);
  cfg.timing.refresh_period_ns =
      get_tick(kv, "refresh_period", cfg.timing.refresh_period_ns);
  cfg.timing.tag_check_ns = get_tick(kv, "tag_check", cfg.timing.tag_check_ns);
  cfg.timing.pause_resume_ns =
      get_tick(kv, "pause_resume", cfg.timing.pause_resume_ns);

  // Architecture. arch= names a preset that sets all four composition
  // axes; the composition keys below then override single axes. The
  // key/value store is unordered, so the preset always applies first.
  if (kv.has("arch")) {
    cfg.arch.composition = arch_preset(kv.get_string_or("arch", ""));
  }
  if (kv.has("code")) cfg.arch.code = kv.get_string_or("code", cfg.arch.code);
  // Per-region code overrides; empty means "derive from code= (classic
  // kinds) or the family default (sectioned kinds)".
  if (kv.has("main.code")) {
    cfg.arch.main_code = kv.get_string_or("main.code", cfg.arch.main_code);
  }
  if (kv.has("cache.code")) {
    cfg.arch.cache_code = kv.get_string_or("cache.code", cfg.arch.cache_code);
  }
  cfg.arch.rat_entries = get_unsigned(kv, "rat", cfg.arch.rat_entries);
  // Composition keys override individual axes; validate_composition()
  // rejects nonsense combinations with an actionable message.
  if (kv.has("main.coding") || kv.has("cache.enabled") ||
      kv.has("cache.coding") || kv.has("refresh")) {
    Composition c = cfg.arch.composition;
    // Invalid coding kinds list the valid ones: the axis gained cells
    // (polar, ts-constrained) that older configs will not know about.
    constexpr const char* kCodingKinds =
        "raw, symmetric, fnw, wom-wide, wom-hidden, polar, ts-constrained";
    if (kv.has("main.coding")) {
      const std::string v = kv.get_string_or("main.coding", "");
      if (!coding_kind_from_string(v, &c.main_coding)) {
        throw std::invalid_argument("config: bad value for main.coding: " + v +
                                    " (valid: " + kCodingKinds + ")");
      }
    }
    if (kv.has("cache.enabled")) {
      const auto v = kv.get_bool("cache.enabled");
      if (!v) bad("cache.enabled", kv.get_string_or("cache.enabled", ""));
      c.cache_enabled = *v;
    }
    if (kv.has("cache.coding")) {
      const std::string v = kv.get_string_or("cache.coding", "");
      if (!coding_kind_from_string(v, &c.cache_coding)) {
        throw std::invalid_argument("config: bad value for cache.coding: " +
                                    v + " (valid: " + kCodingKinds + ")");
      }
    }
    if (kv.has("refresh")) {
      const std::string v = kv.get_string_or("refresh", "");
      if (!refresh_kind_from_string(v, &c.refresh)) bad("refresh", v);
    }
    cfg.arch.composition = validate_composition(c);
  }
  if (kv.has("refresh_enabled")) {
    const auto v = kv.get_bool("refresh_enabled");
    if (!v) bad("refresh_enabled", kv.get_string_or("refresh_enabled", ""));
    cfg.refresh.enabled = *v;
  }
  if (kv.has("require_empty_queues")) {
    const auto v = kv.get_bool("require_empty_queues");
    if (!v) {
      bad("require_empty_queues",
          kv.get_string_or("require_empty_queues", ""));
    }
    cfg.refresh.require_empty_queues = *v;
  }
  if (kv.has("rth")) {
    const auto v = kv.get_double("rth");
    if (!v || *v < 0.0 || *v > 1.0) bad("rth", kv.get_string_or("rth", ""));
    cfg.refresh.threshold = *v;
  }
  if (kv.has("pausing")) {
    const auto v = kv.get_bool("pausing");
    if (!v) bad("pausing", kv.get_string_or("pausing", ""));
    cfg.refresh.write_pausing = *v;
  }
  if (kv.has("fnw_fast")) {
    const auto v = kv.get_double("fnw_fast");
    if (!v || *v < 0.0 || *v > 1.0) {
      bad("fnw_fast", kv.get_string_or("fnw_fast", ""));
    }
    cfg.arch.fnw_fast_fraction = *v;
  }
  if (kv.has("start_gap")) {
    const auto v = kv.get_bool("start_gap");
    if (!v) bad("start_gap", kv.get_string_or("start_gap", ""));
    cfg.arch.start_gap = *v;
  }
  cfg.arch.start_gap_interval =
      get_unsigned(kv, "start_gap_interval", cfg.arch.start_gap_interval);
  if (kv.has("seed")) {
    const auto v = kv.get_int("seed");
    if (!v) bad("seed", kv.get_string_or("seed", ""));
    cfg.arch.seed = static_cast<std::uint64_t>(*v);
  }

  // Fault injection.
  if (kv.has("fault.enabled")) {
    const auto v = kv.get_bool("fault.enabled");
    if (!v) bad("fault.enabled", kv.get_string_or("fault.enabled", ""));
    cfg.fault.enabled = *v;
  }
  if (kv.has("fault.seed")) {
    const auto v = kv.get_int("fault.seed");
    if (!v) bad("fault.seed", kv.get_string_or("fault.seed", ""));
    cfg.fault.seed = static_cast<std::uint64_t>(*v);
  }
  if (kv.has("fault.endurance")) {
    const auto v = kv.get_double("fault.endurance");
    if (!v || *v <= 0.0) {
      bad("fault.endurance", kv.get_string_or("fault.endurance", ""));
    }
    cfg.fault.endurance = *v;
  }
  if (kv.has("fault.sigma")) {
    const auto v = kv.get_double("fault.sigma");
    if (!v || *v < 0.0) bad("fault.sigma", kv.get_string_or("fault.sigma", ""));
    cfg.fault.sigma = *v;
  }
  if (kv.has("fault.initial_wear")) {
    const auto v = kv.get_double("fault.initial_wear");
    if (!v || *v < 0.0) {
      bad("fault.initial_wear", kv.get_string_or("fault.initial_wear", ""));
    }
    cfg.fault.initial_wear = *v;
  }
  if (kv.has("fault.max_retries")) {
    const auto v = kv.get_int("fault.max_retries");
    if (!v || *v < 1) {
      bad("fault.max_retries", kv.get_string_or("fault.max_retries", ""));
    }
    cfg.fault.max_retries = static_cast<unsigned>(*v);
  }
  cfg.fault.spare_rows =
      get_unsigned(kv, "fault.spare_rows", cfg.fault.spare_rows);
  if (kv.has("fault.read_disturb")) {
    const auto v = kv.get_double("fault.read_disturb");
    if (!v || *v < 0.0 || *v > 1.0) {
      bad("fault.read_disturb", kv.get_string_or("fault.read_disturb", ""));
    }
    cfg.fault.read_disturb = *v;
  }

  // DRAM front tier.
  if (kv.has("tier.enabled")) {
    const auto v = kv.get_bool("tier.enabled");
    if (!v) bad("tier.enabled", kv.get_string_or("tier.enabled", ""));
    cfg.tier.enabled = *v;
  }
  cfg.tier.sets = get_unsigned(kv, "tier.sets", cfg.tier.sets);
  if (cfg.tier.sets == 0) bad("tier.sets", "0");
  cfg.tier.ways = get_unsigned(kv, "tier.ways", cfg.tier.ways);
  if (cfg.tier.ways == 0) bad("tier.ways", "0");
  if (kv.has("tier.replacement")) {
    const std::string v = kv.get_string_or("tier.replacement", "");
    if (!replacement_kind_from_string(v, &cfg.tier.replacement)) {
      bad("tier.replacement", v);
    }
    if (cfg.tier.replacement == ReplacementKind::kBankTag) {
      throw std::invalid_argument(
          "config: tier.replacement=bank_tag is the WOM cache's row/bank "
          "scheme (select it with cache.enabled=true); the tier takes lru, "
          "fifo or random");
    }
  }
  if (kv.has("tier.write_policy")) {
    const std::string v = kv.get_string_or("tier.write_policy", "");
    if (!tier_write_policy_from_string(v, &cfg.tier.write_policy)) {
      bad("tier.write_policy", v);
    }
  }
  cfg.tier.timing.hit_read_ns =
      get_tick(kv, "tier.hit_read", cfg.tier.timing.hit_read_ns);
  cfg.tier.timing.hit_write_ns =
      get_tick(kv, "tier.hit_write", cfg.tier.timing.hit_write_ns);
  if (kv.has("tier.port")) {
    const auto v = kv.get_int("tier.port");
    if (!v || *v < 0) bad("tier.port", kv.get_string_or("tier.port", ""));
    cfg.tier.timing.port_ns = static_cast<Tick>(*v);
  }
  if (kv.has("tier.fault.enabled")) {
    const auto v = kv.get_bool("tier.fault.enabled");
    if (!v) {
      bad("tier.fault.enabled", kv.get_string_or("tier.fault.enabled", ""));
    }
    cfg.tier.fault.enabled = *v;
  }
  if (kv.has("tier.fault.seed")) {
    const auto v = kv.get_int("tier.fault.seed");
    if (!v) bad("tier.fault.seed", kv.get_string_or("tier.fault.seed", ""));
    cfg.tier.fault.seed = static_cast<std::uint64_t>(*v);
  }
  if (kv.has("tier.fault.rate")) {
    const auto v = kv.get_double("tier.fault.rate");
    if (!v || *v < 0.0 || *v > 1.0) {
      bad("tier.fault.rate", kv.get_string_or("tier.fault.rate", ""));
    }
    cfg.tier.fault.frame_fail_rate = *v;
  }

  // Controller.
  if (kv.has("policy")) {
    const std::string p = kv.get_string_or("policy", "");
    if (p == "fcfs") {
      cfg.sched.policy = SchedulingPolicy::kFcfs;
    } else if (p == "read-priority" || p == "readprio") {
      cfg.sched.policy = SchedulingPolicy::kReadPriority;
    } else {
      bad("policy", p);
    }
  }
  cfg.sched.write_q_high =
      get_unsigned(kv, "write_q_high", cfg.sched.write_q_high);
  cfg.sched.write_q_low =
      get_unsigned(kv, "write_q_low", cfg.sched.write_q_low);
  if (kv.has("row_hit_first")) {
    const auto v = kv.get_bool("row_hit_first");
    if (!v) bad("row_hit_first", kv.get_string_or("row_hit_first", ""));
    cfg.sched.row_hit_first = *v;
  }
  cfg.sched.scan_limit = get_unsigned(kv, "scan_limit", cfg.sched.scan_limit);
  if (kv.has("scan_mode")) {
    const std::string m = kv.get_string_or("scan_mode", "");
    if (m == "indexed") {
      cfg.sched.scan_mode = ScanMode::kIndexed;
    } else if (m == "reference") {
      cfg.sched.scan_mode = ScanMode::kReference;
    } else {
      bad("scan_mode", m);
    }
  }
  if (kv.has("row_policy")) {
    const std::string p = kv.get_string_or("row_policy", "");
    if (p == "open") {
      cfg.row_policy = RowPolicy::kOpen;
    } else if (p == "closed") {
      cfg.row_policy = RowPolicy::kClosed;
    } else {
      bad("row_policy", p);
    }
  }
  cfg.queue_capacity =
      get_unsigned(kv, "queue_capacity", cfg.queue_capacity);
  cfg.injection_block =
      get_unsigned(kv, "injection_block", cfg.injection_block);
  if (kv.has("read_forwarding")) {
    const auto v = kv.get_bool("read_forwarding");
    if (!v) bad("read_forwarding", kv.get_string_or("read_forwarding", ""));
    cfg.read_forwarding = *v;
  }
  if (kv.has("warmup")) {
    const auto v = kv.get_int("warmup");
    if (!v || *v < 0) bad("warmup", kv.get_string_or("warmup", ""));
    cfg.warmup_accesses = static_cast<std::uint64_t>(*v);
  }
  return cfg;
}

SimConfig load_config_file(const SimConfig& base, const std::string& path) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("cannot open config file: " + path);
  std::vector<std::string> tokens;
  std::string line;
  while (std::getline(f, line)) {
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream is(line);
    std::string tok;
    while (is >> tok) tokens.push_back(tok);
  }
  return apply_overrides(base, KeyValueConfig::from_tokens(tokens));
}

std::string describe(const SimConfig& cfg) {
  std::ostringstream os;
  os << "channels=" << cfg.geom.channels << "\n"
     << "ranks=" << cfg.geom.ranks << "\n"
     << "banks=" << cfg.geom.banks_per_rank << "\n"
     << "rows=" << cfg.geom.rows_per_bank << "\n"
     << "cols=" << cfg.geom.cols_per_row << "\n"
     << "devices=" << cfg.geom.devices_per_rank << "\n"
     << "bits_per_col=" << cfg.geom.bits_per_col << "\n"
     << "burst=" << cfg.geom.burst_length << "\n"
     << "mapping=" << to_string(cfg.geom.mapping) << "\n"
     << "row_read=" << cfg.timing.row_read_ns << "\n"
     << "row_write=" << cfg.timing.row_write_ns << "\n"
     << "reset=" << cfg.timing.reset_ns << "\n"
     << "set=" << cfg.timing.set_ns << "\n"
     << "col_read=" << cfg.timing.col_read_ns << "\n"
     << "refresh_period=" << cfg.timing.refresh_period_ns << "\n"
     << "tag_check=" << cfg.timing.tag_check_ns << "\n"
     << "pause_resume=" << cfg.timing.pause_resume_ns << "\n";
  const Composition& c = cfg.arch.composition;
  os << "code=" << cfg.arch.code << "\n";
  // Empty region overrides mean "derive" and stay implicit: "main.code="
  // with no value would not tokenize back into a key/value pair anyway.
  if (!cfg.arch.main_code.empty()) {
    os << "main.code=" << cfg.arch.main_code << "\n";
  }
  if (!cfg.arch.cache_code.empty()) {
    os << "cache.code=" << cfg.arch.cache_code << "\n";
  }
  os << "main.coding=" << to_string(c.main_coding) << "\n"
     << "cache.enabled=" << (c.cache_enabled ? "true" : "false") << "\n"
     << "cache.coding=" << to_string(c.cache_coding) << "\n"
     << "refresh=" << to_string(c.refresh) << "\n"
     << "rat=" << cfg.arch.rat_entries << "\n";
  os << "refresh_enabled=" << (cfg.refresh.enabled ? "true" : "false")
     << "\n"
     << "rth=" << cfg.refresh.threshold << "\n"
     << "pausing=" << (cfg.refresh.write_pausing ? "true" : "false") << "\n"
     << "require_empty_queues="
     << (cfg.refresh.require_empty_queues ? "true" : "false") << "\n"
     << "policy="
     << (cfg.sched.policy == SchedulingPolicy::kFcfs ? "fcfs"
                                                     : "read-priority")
     << "\n"
     << "write_q_high=" << cfg.sched.write_q_high << "\n"
     << "write_q_low=" << cfg.sched.write_q_low << "\n"
     << "row_hit_first=" << (cfg.sched.row_hit_first ? "true" : "false")
     << "\n"
     << "scan_limit=" << cfg.sched.scan_limit << "\n"
     << "scan_mode=" << to_string(cfg.sched.scan_mode) << "\n"
     << "row_policy="
     << (cfg.row_policy == RowPolicy::kOpen ? "open" : "closed") << "\n"
     << "queue_capacity=" << cfg.queue_capacity << "\n"
     << "read_forwarding=" << (cfg.read_forwarding ? "true" : "false")
     << "\n"
     << "injection_block=" << cfg.injection_block << "\n"
     << "fnw_fast=" << cfg.arch.fnw_fast_fraction << "\n"
     << "start_gap=" << (cfg.arch.start_gap ? "true" : "false") << "\n"
     << "start_gap_interval=" << cfg.arch.start_gap_interval << "\n"
     << "seed=" << cfg.arch.seed << "\n"
     << "fault.enabled=" << (cfg.fault.enabled ? "true" : "false") << "\n"
     << "fault.seed=" << cfg.fault.seed << "\n"
     << "fault.endurance=" << cfg.fault.endurance << "\n"
     << "fault.sigma=" << cfg.fault.sigma << "\n"
     << "fault.initial_wear=" << cfg.fault.initial_wear << "\n"
     << "fault.max_retries=" << cfg.fault.max_retries << "\n"
     << "fault.spare_rows=" << cfg.fault.spare_rows << "\n"
     << "fault.read_disturb=" << cfg.fault.read_disturb << "\n"
     << "tier.enabled=" << (cfg.tier.enabled ? "true" : "false") << "\n"
     << "tier.sets=" << cfg.tier.sets << "\n"
     << "tier.ways=" << cfg.tier.ways << "\n"
     << "tier.replacement=" << to_string(cfg.tier.replacement) << "\n"
     << "tier.write_policy=" << to_string(cfg.tier.write_policy) << "\n"
     << "tier.hit_read=" << cfg.tier.timing.hit_read_ns << "\n"
     << "tier.hit_write=" << cfg.tier.timing.hit_write_ns << "\n"
     << "tier.port=" << cfg.tier.timing.port_ns << "\n"
     << "tier.fault.enabled=" << (cfg.tier.fault.enabled ? "true" : "false")
     << "\n"
     << "tier.fault.seed=" << cfg.tier.fault.seed << "\n"
     << "tier.fault.rate=" << cfg.tier.fault.frame_fail_rate << "\n";
  if (cfg.warmup_accesses.has_value()) {
    os << "warmup=" << *cfg.warmup_accesses << "\n";
  }
  return os.str();
}

}  // namespace wompcm
