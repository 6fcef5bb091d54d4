// Per-channel DRAM-timing tier fronting the PCM backend.
//
// One TierFront sits inside each channel's MemoryController, ahead of the
// PCM queues: demand accesses probe its TagArray at enqueue time, hits
// complete at DRAM latency without consuming a PCM queue slot (the same
// complete-at-enqueue shape as the controller's read-forwarding fast path),
// and misses/evictions flow into the existing PCM transaction path.
// The tier is per-channel state touched only from that channel's enqueue
// stream.
//
// Frames hold one burst line; a line's home (set, tag) is derived from its
// decoded PCM coordinates, and each frame remembers the full coordinates of
// its occupant so a dirty eviction can be re-expressed as a PCM write.
#pragma once

#include <cstdint>
#include <vector>

#include "arch/tag_array.h"
#include "common/address.h"
#include "common/types.h"
#include "pcm/tier_spec.h"

namespace wompcm {

class MetricRegistry;

class TierFront final {
 public:
  // Demand counters; published per channel as tier.* by the controller.
  struct Counters {
    std::uint64_t read_hits = 0;
    std::uint64_t read_misses = 0;
    std::uint64_t write_hits = 0;
    std::uint64_t write_misses = 0;
    std::uint64_t fills = 0;
    std::uint64_t evictions = 0;
    std::uint64_t writebacks = 0;
    std::uint64_t dead_frames = 0;
  };

  // Outcome of one demand access against the tier.
  struct Result {
    // The access completed in the tier at `done`; nothing reaches PCM.
    bool absorbed = false;
    Tick done = 0;
    // A dirty victim must be re-queued as a background PCM write.
    bool writeback = false;
    DecodedAddr victim;
  };

  TierFront(const TierSpec& spec, const MemoryGeometry& geom,
            unsigned channel);

  // Demand read at `now`: a hit is absorbed; a miss fills the line
  // (write-allocate, possibly evicting a dirty victim) and falls through to
  // the PCM read path.
  Result on_read(const DecodedAddr& dec, Tick now);

  // Demand write at `now`. Writeback policy: absorbed, dirtying the frame
  // (allocating on miss). Writethrough: the frame is updated clean on hit,
  // never allocated on miss, and the write always falls through to PCM.
  Result on_write(const DecodedAddr& dec, Tick now);

  const Counters& counters() const { return ctr_; }

 private:
  struct Placement {
    unsigned set;
    std::uint64_t tag;
  };

  Placement place(const DecodedAddr& dec) const;
  // Line coordinates folded into one id: ((rank*banks + bank)*rows + row)
  // *cols + col; the channel is implicit (one TierFront per channel).
  std::uint64_t line_id(const DecodedAddr& dec) const;
  DecodedAddr decode_line(std::uint64_t id) const;

  // Serialize an absorbed access through the tier port and return its
  // completion time.
  Tick occupy_port(Tick now, Tick service_ns);

  // Install `dec`'s line, evicting as needed. Returns false if the chosen
  // frame is (discovered to be) dead, in which case nothing was installed.
  // On success *way holds the frame's way.
  bool fill(const Placement& pl, const DecodedAddr& dec, Result* r,
            unsigned* way);

  // First-touch seeded fault draw for a frame (see TierFaultConfig).
  bool frame_dead(unsigned slot);

  TierSpec spec_;
  unsigned channel_;
  unsigned banks_;
  unsigned rows_;
  unsigned cols_;
  TagArray tags_;
  // Per-frame occupant line id, for reconstructing eviction targets.
  std::vector<std::uint64_t> resident_;
  // 0 = untested, 1 = healthy, 2 = dead.
  std::vector<std::uint8_t> frame_state_;
  Tick port_free_ = 0;
  Counters ctr_;
};

}  // namespace wompcm
