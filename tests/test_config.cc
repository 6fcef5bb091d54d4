#include <gtest/gtest.h>

#include <stdexcept>

#include "common/config.h"

namespace wompcm {
namespace {

TEST(KeyValueConfig, ParsesKeyValuePairs) {
  const auto cfg = KeyValueConfig::from_tokens(
      {"ranks=4", "seed=0x10", "rate=2.5", "verbose=true"});
  EXPECT_EQ(cfg.get_int_in("ranks", 0, 0, INT64_MAX), 4);
  EXPECT_EQ(cfg.get_int_in("seed", 0, 0, INT64_MAX), 16);
  EXPECT_DOUBLE_EQ(cfg.get_double_or("rate", 0.0), 2.5);
  EXPECT_TRUE(cfg.get_bool_or("verbose", false));
}

TEST(KeyValueConfig, PositionalArguments) {
  const auto cfg = KeyValueConfig::from_tokens({"gen", "out=x", "info"});
  ASSERT_EQ(cfg.positional().size(), 2u);
  EXPECT_EQ(cfg.positional()[0], "gen");
  EXPECT_EQ(cfg.positional()[1], "info");
  EXPECT_EQ(cfg.get_string_or("out", ""), "x");
}

TEST(KeyValueConfig, LaterKeysOverride) {
  const auto cfg = KeyValueConfig::from_tokens({"a=1", "a=2"});
  EXPECT_EQ(cfg.get_int_in("a", 0, 0, INT64_MAX), 2);
}

TEST(KeyValueConfig, MissingKeysFallBack) {
  const KeyValueConfig cfg;
  EXPECT_FALSE(cfg.has("x"));
  EXPECT_EQ(cfg.get_string_or("x", "d"), "d");
  EXPECT_EQ(cfg.get_int_in("x", -3, 0, INT64_MAX), -3);
  EXPECT_FALSE(cfg.get_int("x").has_value());
}

TEST(KeyValueConfig, MalformedNumbersAreNullopt) {
  const auto cfg = KeyValueConfig::from_tokens({"n=12abc", "d=1.2.3"});
  EXPECT_FALSE(cfg.get_int("n").has_value());
  EXPECT_FALSE(cfg.get_double("d").has_value());
  EXPECT_THROW(cfg.get_double_or("d", 0.0), std::invalid_argument);
  // But the raw string is still available.
  EXPECT_EQ(cfg.get_string_or("n", ""), "12abc");
}

TEST(KeyValueConfig, BoolSpellings) {
  const auto cfg = KeyValueConfig::from_tokens(
      {"a=1", "b=0", "c=yes", "d=off", "e=maybe"});
  EXPECT_TRUE(cfg.get_bool_or("a", false));
  EXPECT_FALSE(cfg.get_bool_or("b", true));
  EXPECT_TRUE(cfg.get_bool_or("c", false));
  EXPECT_FALSE(cfg.get_bool_or("d", true));
  EXPECT_FALSE(cfg.get_bool("e").has_value());
  // A present but malformed value is an error, not the fallback.
  EXPECT_THROW(cfg.get_bool_or("e", false), std::invalid_argument);
  EXPECT_TRUE(cfg.get_bool_or("absent", true));
}

TEST(KeyValueConfig, FromArgsSkipsProgramName) {
  const char* argv[] = {"prog", "k=v"};
  const auto cfg = KeyValueConfig::from_args(2, argv);
  EXPECT_EQ(cfg.get_string_or("k", ""), "v");
  EXPECT_TRUE(cfg.positional().empty());
}

TEST(KeyValueConfig, SetOverridesParsed) {
  auto cfg = KeyValueConfig::from_tokens({"k=v"});
  cfg.set("k", "w");
  EXPECT_EQ(cfg.get_string_or("k", ""), "w");
}

TEST(KeyValueConfig, TokenWithLeadingEqualsIsPositional) {
  const auto cfg = KeyValueConfig::from_tokens({"=x"});
  ASSERT_EQ(cfg.positional().size(), 1u);
  EXPECT_EQ(cfg.positional()[0], "=x");
}

}  // namespace
}  // namespace wompcm
