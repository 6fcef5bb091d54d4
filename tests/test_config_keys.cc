// Every config key, checked uniformly through describe().
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>

#include "sim/config_io.h"
#include "sim/experiment.h"

namespace wompcm {
namespace {

TEST(ConfigIo, EveryKeyRejectsMalformedValue) {
  // Every key describe() prints, apart from the free-form code names,
  // rejects a value that no parser accepts with an error naming the key.
  SimConfig cfg = paper_config();
  cfg.warmup_accesses = 1;  // so describe() prints warmup= too
  std::istringstream lines(describe(cfg));
  std::size_t checked = 0;
  for (std::string line; std::getline(lines, line);) {
    const std::string key = line.substr(0, line.find('='));
    if (key == "code" || key == "main.code" || key == "cache.code") continue;
    ++checked;
    try {
      apply_overrides(paper_config(),
                      KeyValueConfig::from_tokens({key + "=@"}));
      ADD_FAILURE() << key << "=@ accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("bad value for " + key),
                std::string::npos)
          << e.what();
    }
  }
  EXPECT_GE(checked, 59u);
}

}  // namespace
}  // namespace wompcm
