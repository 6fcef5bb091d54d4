// A memory transaction as seen by the controller.
#pragma once

#include <cstdint>

#include "common/address.h"
#include "common/types.h"

namespace wompcm {

struct Transaction {
  std::uint64_t id = 0;
  DecodedAddr dec;
  AccessType type = AccessType::kRead;
  Tick arrival = 0;     // when the transaction entered the controller
  bool internal = false;  // controller-generated (e.g. WCPCM victim flush)
  // Tier writeback: planned and routed like a demand write (so it traverses
  // a composed WOM cache) but drained at background priority.
  bool background = false;
  bool record = true;     // false during warmup: simulate but keep no stats
  // Originating service session + 1 (sim/service.h); 0 means untagged (the
  // batch path and all internally-spawned transactions). A nonzero tag
  // routes recorded demand latencies into the per-stream slice of that
  // session on top of the aggregate books — it never changes scheduling.
  std::uint32_t stream = 0;
};

}  // namespace wompcm
