#include "common/config.h"

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <stdexcept>

namespace wompcm {

KeyValueConfig KeyValueConfig::from_args(int argc, const char* const* argv) {
  std::vector<std::string> tokens;
  tokens.reserve(static_cast<std::size_t>(argc > 1 ? argc - 1 : 0));
  for (int i = 1; i < argc; ++i) tokens.emplace_back(argv[i]);
  return from_tokens(tokens);
}

KeyValueConfig KeyValueConfig::from_tokens(
    const std::vector<std::string>& tokens) {
  KeyValueConfig cfg;
  for (const auto& tok : tokens) {
    const auto eq = tok.find('=');
    if (eq == std::string::npos || eq == 0) {
      cfg.positional_.push_back(tok);
    } else {
      cfg.map_[tok.substr(0, eq)] = tok.substr(eq + 1);
    }
  }
  return cfg;
}

void KeyValueConfig::set(const std::string& key, const std::string& value) {
  map_[key] = value;
}

bool KeyValueConfig::has(const std::string& key) const {
  return map_.count(key) != 0;
}

std::optional<std::string> KeyValueConfig::get_string(
    const std::string& key) const {
  const auto it = map_.find(key);
  if (it == map_.end()) return std::nullopt;
  return it->second;
}

std::optional<std::int64_t> KeyValueConfig::get_int(
    const std::string& key) const {
  const auto s = get_string(key);
  if (!s) return std::nullopt;
  char* end = nullptr;
  const long long v = std::strtoll(s->c_str(), &end, 0);
  if (end == s->c_str() || *end != '\0') return std::nullopt;
  return static_cast<std::int64_t>(v);
}

std::optional<double> KeyValueConfig::get_double(const std::string& key) const {
  const auto s = get_string(key);
  if (!s) return std::nullopt;
  char* end = nullptr;
  const double v = std::strtod(s->c_str(), &end);
  // strtod accepts "nan" and "inf": nan slips past every < / > range check
  // and inf past any one-sided one, so both read as malformed.
  if (end == s->c_str() || *end != '\0' || !std::isfinite(v)) {
    return std::nullopt;
  }
  return v;
}

std::optional<bool> KeyValueConfig::get_bool(const std::string& key) const {
  const auto s = get_string(key);
  if (!s) return std::nullopt;
  if (*s == "1" || *s == "true" || *s == "yes" || *s == "on") return true;
  if (*s == "0" || *s == "false" || *s == "no" || *s == "off") return false;
  return std::nullopt;
}

std::string KeyValueConfig::get_string_or(const std::string& key,
                                          const std::string& fallback) const {
  return get_string(key).value_or(fallback);
}

void KeyValueConfig::bad_value(const std::string& key,
                               const std::string& must) const {
  throw std::invalid_argument("bad value for " + key + ": " + map_.at(key) +
                              " (must be " + must + ")");
}

std::int64_t KeyValueConfig::get_int_in(const std::string& key,
                                        std::int64_t fallback, std::int64_t lo,
                                        std::int64_t hi) const {
  if (!has(key)) return fallback;
  const auto v = get_int(key);
  if (!v || *v < lo || *v > hi) {
    bad_value(key, hi == INT64_MAX ? ">= " + std::to_string(lo)
                                   : "in [" + std::to_string(lo) + ", " +
                                         std::to_string(hi) + "]");
  }
  return *v;
}

double KeyValueConfig::get_double_or(const std::string& key,
                                     double fallback) const {
  if (!has(key)) return fallback;
  const auto v = get_double(key);
  if (!v) bad_value(key, "a finite number");
  return *v;
}

bool KeyValueConfig::get_bool_or(const std::string& key, bool fallback) const {
  if (!has(key)) return fallback;
  const auto v = get_bool(key);
  if (!v) bad_value(key, "true or false");
  return *v;
}

}  // namespace wompcm
