// A small key=value configuration store used by the examples and bench
// harnesses to override simulation parameters from the command line
// ("ranks=4 banks=8 code=rs23 seed=7").
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace wompcm {

class KeyValueConfig {
 public:
  KeyValueConfig() = default;

  // Parses argv-style tokens of the form key=value. Tokens without '=' are
  // collected as positional arguments. Later keys override earlier ones.
  static KeyValueConfig from_args(int argc, const char* const* argv);
  static KeyValueConfig from_tokens(const std::vector<std::string>& tokens);

  void set(const std::string& key, const std::string& value);
  bool has(const std::string& key) const;

  std::optional<std::string> get_string(const std::string& key) const;
  std::optional<std::int64_t> get_int(const std::string& key) const;
  // Finite values only: "nan" and "inf" read as malformed (nullopt).
  std::optional<double> get_double(const std::string& key) const;
  std::optional<bool> get_bool(const std::string& key) const;

  std::string get_string_or(const std::string& key,
                            const std::string& fallback) const;
  // `fallback` when absent. A present value that does not parse throws
  // ("bad value for csv: maybe (must be true or false)"), like get_int_in.
  double get_double_or(const std::string& key, double fallback) const;
  bool get_bool_or(const std::string& key, bool fallback) const;

  // The integer under `key` (`fallback` when absent). A value that is not
  // an integer in [lo, hi] throws std::invalid_argument naming the key and
  // the value ("bad value for chunk: 0 (must be >= 1)"): a plain cast of
  // get_int() would wrap accesses=-5 to ~2^64, or pass a zero divisor.
  std::int64_t get_int_in(const std::string& key, std::int64_t fallback,
                          std::int64_t lo, std::int64_t hi) const;

  const std::vector<std::string>& positional() const { return positional_; }
  const std::map<std::string, std::string>& entries() const { return map_; }

 private:
  // Throws "bad value for <key>: <value> (must be <must>)".
  [[noreturn]] void bad_value(const std::string& key,
                              const std::string& must) const;

  std::map<std::string, std::string> map_;
  std::vector<std::string> positional_;
};

}  // namespace wompcm
