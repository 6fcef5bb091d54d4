#include "sim/config_io.h"

#include <algorithm>
#include <climits>
#include <cstdint>
#include <fstream>
#include <functional>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <type_traits>
#include <utility>

namespace wompcm {

namespace {

// One config key: how apply_overrides() reads its value into the SimConfig
// and what describe() prints for it.
struct Key {
  const char* name;
  // Reads kv's value under `key` (the row's name); false when the value is
  // malformed or out of range, which apply_overrides() reports.
  std::function<bool(SimConfig&, const KeyValueConfig& kv,
                     const std::string& key)>
      read;
  // describe()'s value, or nullopt to leave the key out. Empty for a key
  // that describe() never prints.
  std::function<std::optional<std::string>(const SimConfig&)> show;
  // One of the four composition axes, validated together after every key
  // has been read.
  bool axis = false;
};

template <class T>
std::string str(const T& v) {
  std::ostringstream os;
  os << std::boolalpha << v;
  return os.str();
}

// The field's value as describe() prints it. An unset optional field is
// left out.
template <class F>
auto show_field(F field) {
  return [field](const SimConfig& c) -> std::optional<std::string> {
    const auto& v = field(c);
    if constexpr (requires { v.has_value(); }) {
      if (!v) return std::nullopt;
      return str(*v);
    } else {
      return str(v);
    }
  };
}

// An integer in [lo, hi], range-checked before it is narrowed to the
// field's type: channels=4294967298 must not wrap to 2.
template <class F>
Key int_key(const char* name, F field, std::int64_t lo, std::int64_t hi) {
  return {name,
          [=](SimConfig& c, const KeyValueConfig& kv, const std::string& key) {
            const auto v = kv.get_int(key);
            if (!v || *v < lo || *v > hi) return false;
            using T = std::remove_cvref_t<decltype(field(c))>;
            field(c) = static_cast<T>(*v);
            return true;
          },
          show_field(field)};
}

template <class F>
Key uint_key(const char* name, F field, std::int64_t lo = 0) {
  return int_key(name, field, lo, UINT_MAX);
}

template <class F>
Key tick_key(const char* name, F field, std::int64_t lo = 1) {
  return int_key(name, field, lo, INT64_MAX);
}

// Any integer; a negative seed wraps to its two's-complement value.
template <class F>
Key seed_key(const char* name, F field) {
  return int_key(name, field, INT64_MIN, INT64_MAX);
}

// A finite double in [lo, hi].
template <class F>
Key real_key(const char* name, F field, double lo,
             double hi = std::numeric_limits<double>::max()) {
  return {name,
          [=](SimConfig& c, const KeyValueConfig& kv, const std::string& key) {
            const auto v = kv.get_double(key);
            if (!v || *v < lo || *v > hi) return false;
            field(c) = *v;
            return true;
          },
          show_field(field)};
}

template <class F>
Key bool_key(const char* name, F field) {
  return {name,
          [=](SimConfig& c, const KeyValueConfig& kv, const std::string& key) {
            const auto v = kv.get_bool(key);
            if (v) field(c) = *v;
            return v.has_value();
          },
          show_field(field)};
}

// Any string. With `omit_empty`, describe() leaves an empty value out.
template <class F>
Key string_key(const char* name, F field, bool omit_empty = false) {
  return {name,
          [=](SimConfig& c, const KeyValueConfig& kv, const std::string& key) {
            field(c) = kv.get_string_or(key, "");
            return true;
          },
          [=](const SimConfig& c) -> std::optional<std::string> {
            if (omit_empty && field(c).empty()) return std::nullopt;
            return field(c);
          }};
}

// An enum spelled as one of `spellings`; describe() prints the first
// spelling of the field's value.
template <class E, class F>
Key enum_key(const char* name, F field,
             std::vector<std::pair<std::string, E>> spellings) {
  return {name,
          [=](SimConfig& c, const KeyValueConfig& kv, const std::string& key) {
            const std::string v = kv.get_string_or(key, "");
            for (const auto& [s, e] : spellings) {
              if (s == v) {
                field(c) = e;
                return true;
              }
            }
            return false;
          },
          [=](const SimConfig& c) -> std::optional<std::string> {
            for (const auto& [s, e] : spellings) {
              if (e == field(c)) return s;
            }
            return std::nullopt;
          }};
}

// An enum read by its `*_from_string` parser and printed by its to_string().
template <class F, class E>
Key named_key(const char* name, F field,
              bool (*parse)(const std::string&, E*)) {
  return {name,
          [=](SimConfig& c, const KeyValueConfig& kv, const std::string& key) {
            return parse(kv.get_string_or(key, ""), &field(c));
          },
          [=](const SimConfig& c) -> std::optional<std::string> {
            return to_string(field(c));
          }};
}

// A coding-kind axis. A bad kind lists the valid ones: the axis gained
// cells (polar, ts-constrained) that older configs will not know about.
template <class F>
Key coding_key(const char* name, F field) {
  Key k = named_key(name, field, coding_kind_from_string);
  k.read = [parse = k.read](SimConfig& c, const KeyValueConfig& kv,
                            const std::string& key) {
    if (parse(c, kv, key)) return true;
    throw std::invalid_argument(
        "config: bad value for " + key + ": " + kv.get_string_or(key, "") +
        " (valid: raw, symmetric, fnw, wom-wide, wom-hidden, polar, "
        "ts-constrained)");
  };
  return k;
}

// `k`, with `after` applied to the config once k has read a good value.
Key then(Key k, std::function<void(SimConfig&)> after) {
  k.read = [parse = k.read, after](SimConfig& c, const KeyValueConfig& kv,
                                   const std::string& key) {
    if (!parse(c, kv, key)) return false;
    after(c);
    return true;
  };
  return k;
}

Key axis(Key k) {
  k.axis = true;
  return k;
}

// Every key apply_overrides() recognizes, in the order it reads them.
const std::vector<Key>& keys() {
#define FIELD(path) [](auto& c) -> auto& { return c.path; }
  static const std::vector<Key> table = {
      uint_key("channels", FIELD(geom.channels)),
      uint_key("ranks", FIELD(geom.ranks)),
      uint_key("banks", FIELD(geom.banks_per_rank)),
      uint_key("rows", FIELD(geom.rows_per_bank)),
      uint_key("cols", FIELD(geom.cols_per_row)),
      uint_key("devices", FIELD(geom.devices_per_rank)),
      uint_key("bits_per_col", FIELD(geom.bits_per_col)),
      // One burst-length knob: the geometry's line size and the
      // bus-occupancy model describe the same DDR3 burst.
      then(uint_key("burst", FIELD(geom.burst_length)),
           [](SimConfig& c) { c.timing.burst_length = c.geom.burst_length; }),
      enum_key<AddressMapping>(
          "mapping", FIELD(geom.mapping),
          {{"row:rank:bank:col", AddressMapping::kRowRankBankCol},
           {"row:bank:rank:col", AddressMapping::kRowBankRankCol},
           {"rank:bank:row:col", AddressMapping::kRankBankRowCol}}),
      tick_key("row_read", FIELD(timing.row_read_ns)),
      tick_key("row_write", FIELD(timing.row_write_ns)),
      tick_key("reset", FIELD(timing.reset_ns)),
      tick_key("set", FIELD(timing.set_ns)),
      tick_key("col_read", FIELD(timing.col_read_ns)),
      tick_key("refresh_period", FIELD(timing.refresh_period_ns)),
      tick_key("tag_check", FIELD(timing.tag_check_ns)),
      tick_key("pause_resume", FIELD(timing.pause_resume_ns)),
      // A preset setting all four composition axes. It is read before the
      // axis keys below, which then override single axes.
      {"arch",
       [](SimConfig& c, const KeyValueConfig& kv, const std::string& key) {
         c.arch.composition = arch_preset(kv.get_string_or(key, ""));
         return true;
       },
       nullptr},
      string_key("code", FIELD(arch.code)),
      uint_key("rat", FIELD(arch.rat_entries)),
      axis(coding_key("main.coding", FIELD(arch.composition.main_coding))),
      // Per-region code overrides; empty means "derive from code= (classic
      // kinds) or the family default (sectioned kinds)", and stays
      // implicit in describe().
      string_key("main.code", FIELD(arch.main_code), true),
      axis(bool_key("cache.enabled", FIELD(arch.composition.cache_enabled))),
      axis(coding_key("cache.coding", FIELD(arch.composition.cache_coding))),
      string_key("cache.code", FIELD(arch.cache_code), true),
      axis(named_key("refresh", FIELD(arch.composition.refresh),
                     refresh_kind_from_string)),
      bool_key("refresh_enabled", FIELD(refresh.enabled)),
      bool_key("require_empty_queues", FIELD(refresh.require_empty_queues)),
      real_key("rth", FIELD(refresh.threshold), 0.0, 1.0),
      bool_key("pausing", FIELD(refresh.write_pausing)),
      real_key("fnw_fast", FIELD(arch.fnw_fast_fraction), 0.0, 1.0),
      bool_key("start_gap", FIELD(arch.start_gap)),
      uint_key("start_gap_interval", FIELD(arch.start_gap_interval)),
      seed_key("seed", FIELD(arch.seed)),
      enum_key<SchedulingPolicy>(
          "policy", FIELD(sched.policy),
          {{"fcfs", SchedulingPolicy::kFcfs},
           {"read-priority", SchedulingPolicy::kReadPriority},
           {"readprio", SchedulingPolicy::kReadPriority}}),
      uint_key("write_q_high", FIELD(sched.write_q_high)),
      uint_key("write_q_low", FIELD(sched.write_q_low)),
      bool_key("row_hit_first", FIELD(sched.row_hit_first)),
      uint_key("scan_limit", FIELD(sched.scan_limit)),
      enum_key<RowPolicy>(
          "row_policy", FIELD(row_policy),
          {{"open", RowPolicy::kOpen}, {"closed", RowPolicy::kClosed}}),
      uint_key("queue_capacity", FIELD(queue_capacity)),
      bool_key("read_forwarding", FIELD(read_forwarding)),
      uint_key("injection_block", FIELD(injection_block)),
      // Printed only when set: unset means "auto" (sim/run.h).
      int_key("warmup", FIELD(warmup_accesses), 0, INT64_MAX),
      bool_key("fault.enabled", FIELD(fault.enabled)),
      seed_key("fault.seed", FIELD(fault.seed)),
      // denorm_min is the least double above 0: endurance must be > 0.
      real_key("fault.endurance", FIELD(fault.endurance),
               std::numeric_limits<double>::denorm_min()),
      real_key("fault.sigma", FIELD(fault.sigma), 0.0),
      real_key("fault.initial_wear", FIELD(fault.initial_wear), 0.0),
      uint_key("fault.max_retries", FIELD(fault.max_retries), 1),
      uint_key("fault.spare_rows", FIELD(fault.spare_rows)),
      real_key("fault.read_disturb", FIELD(fault.read_disturb), 0.0, 1.0),
      bool_key("tier.enabled", FIELD(tier.enabled)),
      uint_key("tier.sets", FIELD(tier.sets), 1),
      uint_key("tier.ways", FIELD(tier.ways), 1),
      named_key("tier.replacement", FIELD(tier.replacement),
                replacement_kind_from_string),
      named_key("tier.write_policy", FIELD(tier.write_policy),
                tier_write_policy_from_string),
      tick_key("tier.hit_read", FIELD(tier.timing.hit_read_ns)),
      tick_key("tier.hit_write", FIELD(tier.timing.hit_write_ns)),
      tick_key("tier.port", FIELD(tier.timing.port_ns), 0),
      bool_key("tier.fault.enabled", FIELD(tier.fault.enabled)),
      seed_key("tier.fault.seed", FIELD(tier.fault.seed)),
      real_key("tier.fault.rate", FIELD(tier.fault.frame_fail_rate), 0.0, 1.0),
  };
#undef FIELD
  return table;
}

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
  std::vector<std::string> known;
  for (const Key& k : keys()) known.push_back(k.name);
  known.insert(known.end(), harness_keys.begin(), harness_keys.end());
  for (const auto& [key, value] : kv.entries()) {
    (void)value;
    if (std::find(known.begin(), known.end(), key) != known.end()) continue;
    // Suggest the nearest valid key (config keys first, then the harness's
    // own keys) so a typo points at its likely target, but only when it is
    // within a third of the typo's length: a removed key gets no hint
    // rather than an unrelated one.
    std::string nearest;
    std::size_t best = std::max<std::size_t>(1, key.size() / 3) + 1;
    for (const std::string& cand : known) {
      const std::size_t d = edit_distance(key, cand);
      if (d < best) {
        best = d;
        nearest = cand;
      }
    }
    std::string msg = "config: unknown key '" + key + "'";
    if (!nearest.empty()) msg += " (did you mean '" + nearest + "'?)";
    throw std::invalid_argument(msg);
  }
}

}  // namespace

SimConfig apply_overrides(SimConfig cfg, const KeyValueConfig& kv,
                          const std::vector<std::string>& harness_keys) {
  reject_unknown_keys(kv, harness_keys);
  bool axis_given = false;
  for (const Key& k : keys()) {
    const std::string key = k.name;
    if (!kv.has(key)) continue;
    if (!k.read(cfg, kv, key)) {
      throw std::invalid_argument("config: bad value for " + key + ": " +
                                  kv.get_string_or(key, ""));
    }
    axis_given = axis_given || k.axis;
  }
  // validate_composition() rejects nonsense combinations with an
  // actionable message.
  if (axis_given) {
    cfg.arch.composition = validate_composition(cfg.arch.composition);
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
  std::string out;
  for (const Key& k : keys()) {
    if (!k.show) continue;
    if (const auto v = k.show(cfg)) {
      out += std::string(k.name) + "=" + *v + "\n";
    }
  }
  return out;
}

}  // namespace wompcm
