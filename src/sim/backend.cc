#include "sim/backend.h"

#include "sim/memory_system.h"
#include "sim/sharded.h"

namespace wompcm {

std::unique_ptr<SimBackend> make_backend(const SimConfig& cfg,
                                         unsigned jobs) {
  if (jobs > 1 && cfg.geom.channels > 1) {
    return std::make_unique<ShardedBackend>(cfg, jobs);
  }
  return std::make_unique<MemorySystem>(cfg);
}

}  // namespace wompcm
