// TagArray + replacement-scheme unit contract (DESIGN.md "Tag arrays &
// tiered backends"): invalid ways fill before any victim is consulted,
// LRU/FIFO/random order evictions as advertised, and the random stream is
// a pure function of its seed.
#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <vector>

#include "arch/tag_array.h"

namespace wompcm {
namespace {

TagArray make(ReplacementKind kind, unsigned sets, unsigned ways,
              std::uint64_t seed = 1) {
  return TagArray(sets, ways, kind, seed);
}

TEST(TagArray, KindStringsRoundTrip) {
  for (const ReplacementKind k :
       {ReplacementKind::kLru, ReplacementKind::kFifo,
        ReplacementKind::kRandom}) {
    ReplacementKind parsed;
    ASSERT_TRUE(replacement_kind_from_string(to_string(k), &parsed));
    EXPECT_EQ(parsed, k);
  }
  ReplacementKind parsed;
  EXPECT_FALSE(replacement_kind_from_string("plru", &parsed));
  // The WOM cache's row entry is not a tag-array scheme.
  EXPECT_FALSE(replacement_kind_from_string("bank_tag", &parsed));
}

TEST(TagArray, LookupInstallInvalidate) {
  TagArray t = make(ReplacementKind::kLru, 4, 2);
  EXPECT_EQ(t.lookup(0, 42), TagArray::kNoWay);
  const unsigned w = t.fill_way(0);
  t.install(0, w, 42);
  EXPECT_EQ(t.lookup(0, 42), w);
  EXPECT_TRUE(t.valid(0, w));
  EXPECT_EQ(t.tag(0, w), 42u);
  EXPECT_FALSE(t.dirty(0, w));
  t.set_dirty(0, w, true);
  EXPECT_TRUE(t.dirty(0, w));
  // Other sets are untouched.
  EXPECT_EQ(t.lookup(1, 42), TagArray::kNoWay);
  t.invalidate(0, w);
  EXPECT_EQ(t.lookup(0, 42), TagArray::kNoWay);
  EXPECT_FALSE(t.dirty(0, w));  // invalidation drops the dirty bit
}

TEST(TagArray, InvalidWaysFillBeforeAnyEviction) {
  TagArray t = make(ReplacementKind::kLru, 1, 4);
  std::set<unsigned> used;
  for (std::uint64_t tag = 0; tag < 4; ++tag) {
    const unsigned w = t.fill_way(0);
    EXPECT_FALSE(t.valid(0, w));  // never clobbers a valid way while room
    t.install(0, w, tag);
    used.insert(w);
  }
  EXPECT_EQ(used.size(), 4u);  // all four ways populated exactly once
}

TEST(TagArray, LruEvictsLeastRecentlyUsed) {
  TagArray t = make(ReplacementKind::kLru, 1, 4);
  for (std::uint64_t tag = 0; tag < 4; ++tag) {
    t.install(0, t.fill_way(0), tag);
  }
  // Touch 0 (the oldest install): the victim must now be 1.
  t.touch(0, t.lookup(0, 0));
  const unsigned victim = t.fill_way(0);
  EXPECT_EQ(t.tag(0, victim), 1u);
  t.install(0, victim, 99);
  // 1 is gone, 0 and 99 are resident.
  EXPECT_EQ(t.lookup(0, 1), TagArray::kNoWay);
  EXPECT_NE(t.lookup(0, 0), TagArray::kNoWay);
  EXPECT_NE(t.lookup(0, 99), TagArray::kNoWay);
}

TEST(TagArray, FifoIgnoresTouches) {
  TagArray t = make(ReplacementKind::kFifo, 1, 3);
  for (std::uint64_t tag = 0; tag < 3; ++tag) {
    t.install(0, t.fill_way(0), tag);
  }
  // However recently used, the first install is still the first out.
  t.touch(0, t.lookup(0, 0));
  t.touch(0, t.lookup(0, 0));
  EXPECT_EQ(t.tag(0, t.fill_way(0)), 0u);
}

TEST(TagArray, RandomVictimStreamIsSeedDeterministic) {
  const auto victims = [](std::uint64_t seed) {
    TagArray t = make(ReplacementKind::kRandom, 1, 8, seed);
    for (std::uint64_t tag = 0; tag < 8; ++tag) {
      t.install(0, t.fill_way(0), tag);
    }
    std::vector<unsigned> v;
    for (int i = 0; i < 32; ++i) {
      const unsigned w = t.fill_way(0);
      v.push_back(w);
      t.install(0, w, 100 + static_cast<std::uint64_t>(i));
    }
    return v;
  };
  EXPECT_EQ(victims(7), victims(7));   // same seed, same stream
  EXPECT_NE(victims(7), victims(8));   // 8^32 draws: collision ~ impossible
}

TEST(TagArray, RejectsEmptyGeometry) {
  EXPECT_THROW(make(ReplacementKind::kLru, 0, 4), std::invalid_argument);
  EXPECT_THROW(make(ReplacementKind::kLru, 4, 0), std::invalid_argument);
}

}  // namespace
}  // namespace wompcm
