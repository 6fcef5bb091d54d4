// Replacement-state model check (DESIGN.md "Dispatch strategy").
//
// TagArray's replacement hooks run through the enum-switched
// ReplacementState value type. This suite keeps its own straight-line
// model of the three schemes, one class per scheme behind a virtual
// interface, drives it and ReplacementState through identical call
// sequences, and requires identical victim streams call for call.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "arch/tag_array.h"
#include "common/rng.h"

namespace wompcm {
namespace {

// ---------------------------------------------------------------------------
// The model: victim selection for one set-associative array. It keeps only
// recency/order metadata, like ReplacementState; validity and tags stay
// with the array.

class ReplacementModel {
 public:
  virtual ~ReplacementModel() = default;
  // A lookup hit on (set, way).
  virtual void touch(unsigned set, unsigned way) = 0;
  // A fill installed a new tag into (set, way).
  virtual void install(unsigned set, unsigned way) = 0;
  // The way to evict from a full set (random draws from its RNG).
  virtual unsigned victim(unsigned set) = 0;
  // (set, way) was invalidated; it will be preferred for the next fill.
  virtual void invalidate(unsigned set, unsigned way) = 0;
};

// Per-frame stamps from one monotone clock; the victim is the least
// recently stamped way. Exact LRU stamps on hits and installs, FIFO on
// installs only.
class StampModel final : public ReplacementModel {
 public:
  StampModel(unsigned sets, unsigned ways, bool stamp_hits)
      : ways_(ways),
        stamp_hits_(stamp_hits),
        stamp_(static_cast<std::size_t>(sets) * ways, 0) {}
  void touch(unsigned set, unsigned way) override {
    if (stamp_hits_) mark(set, way);
  }
  void install(unsigned set, unsigned way) override { mark(set, way); }
  unsigned victim(unsigned set) override {
    const std::uint64_t* base = &stamp_[static_cast<std::size_t>(set) * ways_];
    return static_cast<unsigned>(std::min_element(base, base + ways_) - base);
  }
  void invalidate(unsigned set, unsigned way) override {
    stamp_[static_cast<std::size_t>(set) * ways_ + way] = 0;
  }

 private:
  void mark(unsigned set, unsigned way) {
    stamp_[static_cast<std::size_t>(set) * ways_ + way] = ++clock_;
  }
  unsigned ways_;
  bool stamp_hits_;
  std::uint64_t clock_ = 0;
  std::vector<std::uint64_t> stamp_;
};

// Uniform random victim from a seeded xoshiro stream: deterministic for a
// given (seed, call sequence).
class RandomModel final : public ReplacementModel {
 public:
  RandomModel(unsigned ways, std::uint64_t seed) : ways_(ways), rng_(seed) {}
  void touch(unsigned, unsigned) override {}
  void install(unsigned, unsigned) override {}
  unsigned victim(unsigned) override {
    return static_cast<unsigned>(rng_.next_below(ways_));
  }
  void invalidate(unsigned, unsigned) override {}

 private:
  unsigned ways_;
  Rng rng_;
};

std::unique_ptr<ReplacementModel> make_model(ReplacementKind kind,
                                             unsigned sets, unsigned ways,
                                             std::uint64_t seed) {
  switch (kind) {
    case ReplacementKind::kLru:
      return std::make_unique<StampModel>(sets, ways, true);
    case ReplacementKind::kFifo:
      return std::make_unique<StampModel>(sets, ways, false);
    case ReplacementKind::kRandom:
      return std::make_unique<RandomModel>(ways, seed);
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// ReplacementState vs the model, same pseudo-random hook sequence.

void drive_replacement(ReplacementKind kind, unsigned sets, unsigned ways,
                       std::uint64_t policy_seed, std::uint64_t drive_seed) {
  ReplacementState fast(kind, sets, ways, policy_seed);
  const std::unique_ptr<ReplacementModel> ref =
      make_model(kind, sets, ways, policy_seed);

  Rng rng(drive_seed);
  for (int i = 0; i < 4000; ++i) {
    const unsigned set = static_cast<unsigned>(rng.next_below(sets));
    const unsigned way = static_cast<unsigned>(rng.next_below(ways));
    switch (rng.next_below(4)) {
      case 0:
        fast.touch(set, way);
        ref->touch(set, way);
        break;
      case 1:
        fast.install(set, way);
        ref->install(set, way);
        break;
      case 2:
        // The victim choice is the only hook with an observable result; it
        // must match at every point of the interleaved sequence (for
        // kRandom this also locks the two Rng streams together).
        ASSERT_EQ(fast.victim(set), ref->victim(set))
            << to_string(kind) << " diverged at step " << i;
        break;
      case 3:
        fast.invalidate(set, way);
        ref->invalidate(set, way);
        break;
    }
  }
}

TEST(DispatchEquivalence, ReplacementStateMatchesVirtualPolicies) {
  drive_replacement(ReplacementKind::kLru, 16, 4, 7, 102);
  drive_replacement(ReplacementKind::kLru, 1, 8, 9, 103);
  drive_replacement(ReplacementKind::kFifo, 16, 4, 7, 104);
  drive_replacement(ReplacementKind::kFifo, 32, 2, 9, 105);
  drive_replacement(ReplacementKind::kRandom, 16, 4, 7, 106);
  drive_replacement(ReplacementKind::kRandom, 8, 8, 1234, 107);
}

}  // namespace
}  // namespace wompcm
