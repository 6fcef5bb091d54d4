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
// ("config: unknown key 'scanmode' (did you mean 'scan_mode'?)"), so a typo
// never silently runs the default configuration. Keys that belong to the
// calling harness rather than the SimConfig (e.g. accesses/benchmark/jobs)
// are passed in `harness_keys` and skipped. Throws std::invalid_argument
// when a recognized key has a bad value.
//
// Keys: channels ranks banks rows cols devices burst
//       row_read row_write reset set col_read refresh_period
//       arch (pcm|wom|refresh|wcpcm|fnw|symmetric: a preset setting the
//       four composition keys) main.coding cache.enabled cache.coding
//       refresh (the composition axes) code main.code cache.code
//       rat rth pausing policy (fcfs|read-priority) row_policy (open|closed)
//       queue_capacity read_forwarding warmup
//       start_gap start_gap_interval fnw_fast seed
//       fault.enabled fault.seed fault.endurance fault.sigma
//       fault.initial_wear fault.max_retries fault.spare_rows
//       fault.read_disturb
//       tier.enabled tier.sets tier.ways tier.replacement (lru|fifo|random)
//       tier.write_policy (writeback|writethrough) tier.hit_read
//       tier.hit_write tier.port tier.fault.enabled tier.fault.seed
//       tier.fault.rate
SimConfig apply_overrides(SimConfig base, const KeyValueConfig& kv,
                          const std::vector<std::string>& harness_keys = {});

// Loads key=value lines from a file and applies them onto `base`.
// Throws std::runtime_error if the file cannot be read.
SimConfig load_config_file(const SimConfig& base, const std::string& path);

// Human-readable one-key-per-line dump, loadable by load_config_file.
std::string describe(const SimConfig& cfg);

}  // namespace wompcm
