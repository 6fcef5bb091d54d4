// Specification of an optional fast volatile tier fronting PCM main memory.
//
// The paper's platform is single-level; a DRAM cache in front of the PCM
// array is the standard hybrid organization (Song et al., arXiv:2005.04753)
// and the "multi-backend" leg of the roadmap. A TierSpec carries everything
// a per-channel TierFront needs: cache geometry (sets x ways of one-line
// frames), DRAM-class hit timing, the write policy, the replacement scheme,
// and an optional frame-fault model mirroring the PCM fault layer's seeded
// determinism.
#pragma once

#include <cstdint>
#include <string>

#include "arch/tag_array.h"
#include "common/types.h"

namespace wompcm {

// Writeback: demand writes are absorbed by the tier and reach PCM only when
// a dirty frame is evicted. Writethrough: every demand write also programs
// PCM; the tier is updated on hit but never allocates on a write miss.
enum class TierWritePolicy : std::uint8_t { kWriteback, kWritethrough };

const char* to_string(TierWritePolicy p);
bool tier_write_policy_from_string(const std::string& s, TierWritePolicy* out);

// DRAM-class access latencies for the tier. Defaults follow DDR3-style
// timing: ~15 ns row-buffer access end to end, with the tier's port
// (command/data bus) occupied for one burst.
struct TierTiming {
  Tick hit_read_ns = 15;   // tag check + column read of a resident line
  Tick hit_write_ns = 15;  // tag check + column write into a frame
  Tick port_ns = 4;        // per-access port occupancy (DDR burst)
};

// Seeded frame-fault model: each (set, way) frame independently fails with
// probability `rate`, decided by one deterministic draw on first install —
// a pure function of (seed, channel, frame), which the registry corpus
// pins. A failed frame is retired before ever holding data:
// its accesses bypass the tier, mirroring the WOM cache's
// retire-and-bypass degradation.
struct TierFaultConfig {
  bool enabled = false;
  std::uint64_t seed = 1;
  double frame_fail_rate = 0.0;
};

struct TierSpec {
  bool enabled = false;
  unsigned sets = 4096;
  unsigned ways = 8;
  ReplacementKind replacement = ReplacementKind::kLru;
  TierWritePolicy write_policy = TierWritePolicy::kWriteback;
  TierTiming timing;
  TierFaultConfig fault;

  bool valid(std::string* why = nullptr) const;
};

}  // namespace wompcm
