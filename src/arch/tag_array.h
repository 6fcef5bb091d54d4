// Set-associative tag state with pluggable replacement: the tag layer of
// the DRAM-timing front tier (lru / fifo / random).
//
// A TagArray owns only the tag/valid/dirty bookkeeping of sets x ways
// frames; payloads live with the caller, keyed by the dense frame index
// slot(set, way). Victim selection is delegated to a replacement scheme.
//
// Dispatch strategy: the replacement schemes form a *closed* set, so the
// hot hooks (touch / install / victim / invalidate) are an enum-switch over
// inline state (ReplacementState) that the compiler flattens into the
// callers — TagArray probes inline into TierFront with no indirect call
// per access. tests/test_dispatch_equivalence.cc keeps a
// one-class-per-scheme model of the same schemes and checks this state
// against it call for call.
#pragma once

#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"

namespace wompcm {

// Replacement schemes a TagArray can be built with.
enum class ReplacementKind : std::uint8_t {
  kLru,
  kFifo,
  kRandom,
};

const char* to_string(ReplacementKind kind);
bool replacement_kind_from_string(const std::string& s, ReplacementKind* out);

// The monomorphized replacement state: one value type closed over the three
// schemes, dispatched by enum-switch so every hook inlines into the tag
// probe that calls it. Implementations keep only recency/order metadata;
// validity and tags stay in the TagArray, which always prefers an invalid
// way before consulting victim().
class ReplacementState {
 public:
  ReplacementState(ReplacementKind kind, unsigned sets, unsigned ways,
                   std::uint64_t seed);

  ReplacementKind kind() const { return kind_; }
  const char* name() const { return to_string(kind_); }

  void touch(unsigned set, unsigned way) {
    // Only exact LRU refreshes a line's position on a hit.
    if (kind_ == ReplacementKind::kLru) mark(set, way);
  }

  void install(unsigned set, unsigned way) {
    // LRU and FIFO both stamp installs; FIFO simply never re-stamps.
    if (kind_ == ReplacementKind::kLru || kind_ == ReplacementKind::kFifo) {
      mark(set, way);
    }
  }

  unsigned victim(unsigned set) {
    switch (kind_) {
      case ReplacementKind::kLru:
      case ReplacementKind::kFifo:
        return min_stamp_way(set);
      case ReplacementKind::kRandom:
        return static_cast<unsigned>(rng_.next_below(ways_));
    }
    return 0;
  }

  void invalidate(unsigned set, unsigned way) {
    if (kind_ == ReplacementKind::kLru || kind_ == ReplacementKind::kFifo) {
      stamp_[static_cast<std::size_t>(set) * ways_ + way] = 0;
    }
  }

 private:
  void mark(unsigned set, unsigned way) {
    stamp_[static_cast<std::size_t>(set) * ways_ + way] = ++clock_;
  }
  unsigned min_stamp_way(unsigned set) const {
    const std::uint64_t* base = &stamp_[static_cast<std::size_t>(set) * ways_];
    unsigned best = 0;
    for (unsigned w = 1; w < ways_; ++w) {
      if (base[w] < base[best]) best = w;
    }
    return best;
  }

  ReplacementKind kind_;
  unsigned ways_;
  std::uint64_t clock_ = 0;
  std::vector<std::uint64_t> stamp_;  // lru/fifo use stamps; empty otherwise
  Rng rng_;                           // drawn from by random only
};

class TagArray final {
 public:
  static constexpr unsigned kNoWay = ~0u;

  // The seed only matters for ReplacementKind::kRandom.
  TagArray(unsigned sets, unsigned ways, ReplacementKind repl,
           std::uint64_t seed = 0);

  unsigned sets() const { return sets_; }
  unsigned ways() const { return ways_; }
  ReplacementKind replacement() const { return repl_.kind(); }

  // Dense frame index for caller-side payload vectors.
  unsigned slot(unsigned set, unsigned way) const { return set * ways_ + way; }

  // Pure probe: the way holding `tag` in `set`, or kNoWay. Does not touch
  // replacement state — pair with touch() when the probe is a real access.
  unsigned lookup(unsigned set, std::uint64_t tag) const {
    const WayState* base = &frames_[static_cast<std::size_t>(set) * ways_];
    for (unsigned w = 0; w < ways_; ++w) {
      if (base[w].valid && base[w].tag == tag) return w;
    }
    return kNoWay;
  }

  bool valid(unsigned set, unsigned way) const {
    return frame(set, way).valid;
  }
  std::uint64_t tag(unsigned set, unsigned way) const {
    return frame(set, way).tag;
  }
  bool dirty(unsigned set, unsigned way) const {
    return frame(set, way).dirty;
  }
  void set_dirty(unsigned set, unsigned way, bool dirty) {
    frame(set, way).dirty = dirty;
  }

  // The way a fill into `set` will use: the first invalid way if any,
  // otherwise the policy's victim. Does not mutate tag state (the policy
  // may advance its RNG); follow with install() once the fill commits.
  unsigned fill_way(unsigned set);

  // Record a hit on (set, way) with the policy.
  void touch(unsigned set, unsigned way) {
    repl_.touch(set, way);
  }

  // Install `tag` into (set, way), clobbering any previous occupant.
  void install(unsigned set, unsigned way, std::uint64_t tag) {
    WayState& f = frame(set, way);
    f.valid = true;
    f.tag = tag;
    f.dirty = false;
    repl_.install(set, way);
  }

  void invalidate(unsigned set, unsigned way) {
    WayState& f = frame(set, way);
    f.valid = false;
    f.dirty = false;
    repl_.invalidate(set, way);
  }

 private:
  struct WayState {
    std::uint64_t tag = 0;
    bool valid = false;
    bool dirty = false;
  };

  WayState& frame(unsigned set, unsigned way) {
    assert(set < sets_ && way < ways_);
    return frames_[static_cast<std::size_t>(set) * ways_ + way];
  }
  const WayState& frame(unsigned set, unsigned way) const {
    assert(set < sets_ && way < ways_);
    return frames_[static_cast<std::size_t>(set) * ways_ + way];
  }

  unsigned sets_;
  unsigned ways_;
  ReplacementState repl_;
  std::vector<WayState> frames_;
};

}  // namespace wompcm
