// Devirtualized-vs-virtual dispatch equivalence (DESIGN.md "Dispatch
// strategy").
//
// TagArray's replacement hooks run through the enum-switched
// ReplacementState value type. The virtual ReplacementPolicy classes stay
// in the tree as the reference; this suite drives both through identical
// call sequences and requires identical victim streams call for call.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>

#include "arch/tag_array.h"
#include "common/rng.h"

namespace wompcm {
namespace {

// ---------------------------------------------------------------------------
// Replacement dispatch: ReplacementState (enum switch) vs ReplacementPolicy
// (virtual reference), same pseudo-random hook sequence.

void drive_replacement(ReplacementKind kind, unsigned sets, unsigned ways,
                       std::uint64_t policy_seed, std::uint64_t drive_seed) {
  ReplacementState fast(kind, sets, ways, policy_seed);
  const std::unique_ptr<ReplacementPolicy> ref =
      make_replacement_policy(kind, sets, ways, policy_seed);

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
  drive_replacement(ReplacementKind::kBankTag, 64, 1, 7, 101);
  drive_replacement(ReplacementKind::kLru, 16, 4, 7, 102);
  drive_replacement(ReplacementKind::kLru, 1, 8, 9, 103);
  drive_replacement(ReplacementKind::kFifo, 16, 4, 7, 104);
  drive_replacement(ReplacementKind::kFifo, 32, 2, 9, 105);
  drive_replacement(ReplacementKind::kRandom, 16, 4, 7, 106);
  drive_replacement(ReplacementKind::kRandom, 8, 8, 1234, 107);
}

}  // namespace
}  // namespace wompcm
