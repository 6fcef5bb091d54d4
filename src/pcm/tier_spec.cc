#include "pcm/tier_spec.h"

namespace wompcm {

const char* to_string(TierWritePolicy p) {
  return p == TierWritePolicy::kWriteback ? "writeback" : "writethrough";
}

bool tier_write_policy_from_string(const std::string& s,
                                   TierWritePolicy* out) {
  if (s == "writeback") {
    *out = TierWritePolicy::kWriteback;
  } else if (s == "writethrough") {
    *out = TierWritePolicy::kWritethrough;
  } else {
    return false;
  }
  return true;
}

bool TierSpec::valid(std::string* why) const {
  const auto fail = [&](const char* msg) {
    if (why != nullptr) *why = msg;
    return false;
  };
  if (!enabled) return true;
  if (sets == 0) return fail("tier.sets must be positive");
  if (ways == 0) return fail("tier.ways must be positive");
  if (timing.hit_read_ns == 0 || timing.hit_write_ns == 0) {
    return fail("tier hit latencies must be positive");
  }
  if (fault.frame_fail_rate < 0.0 || fault.frame_fail_rate > 1.0) {
    return fail("tier.fault.rate must be within [0, 1]");
  }
  return true;
}

}  // namespace wompcm
