// SimConfig <-> key=value plumbing for the CLI tools.
//
// All examples and benches accept overrides like "ranks=4 arch=wcpcm
// code=rs23-inv row_policy=closed"; this module centralizes the mapping so
// every binary understands the same dialect, and a config can be loaded
// from a file of key=value lines ('#' comments allowed).
#pragma once

#include <string>
#include <vector>

#include "common/config.h"
#include "sim/simulator.h"

namespace wompcm {

// Applies the recognized keys from `kv` onto `base`. Strict: an unknown key
// throws std::invalid_argument naming the key and the nearest valid key
// ("config: unknown key 'scanlimit' (did you mean 'scan_limit'?)"), so a typo
// never silently runs the default configuration. Keys that belong to the
// calling harness rather than the SimConfig (e.g. accesses/benchmark/jobs)
// are passed in `harness_keys` and skipped. Throws std::invalid_argument
// when a recognized key has a bad value.
//
// Every key, with its range or spellings, is one row of the key table in
// config_io.cc; README.md lists them all.
SimConfig apply_overrides(SimConfig base, const KeyValueConfig& kv,
                          const std::vector<std::string>& harness_keys = {});

// Loads key=value lines from a file and applies them onto `base`.
// Throws std::runtime_error if the file cannot be read.
SimConfig load_config_file(const SimConfig& base, const std::string& path);

// Human-readable one-key-per-line dump, loadable by load_config_file.
std::string describe(const SimConfig& cfg);

}  // namespace wompcm
