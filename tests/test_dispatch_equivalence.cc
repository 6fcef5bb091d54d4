// Devirtualized-vs-virtual dispatch equivalence (DESIGN.md "Dispatch
// strategy on the composed hot path").
//
// The composed hot path monomorphizes two closed interfaces: TagArray's
// replacement hooks run through the enum-switched ReplacementState value
// type, and the per-access CodingPolicy hooks run through the
// coding_dispatch.h switch helpers. The virtual implementations stay in the
// tree as the reference; this suite drives both sides of each
// pair through identical call sequences and requires identical results
// call for call — victim streams, write classing, plan timing fields,
// counter books, energy totals.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "arch/coding_dispatch.h"
#include "arch/tag_array.h"
#include "common/rng.h"
#include "pcm/endurance.h"
#include "pcm/energy.h"
#include "pcm/timing.h"
#include "stats/stats.h"

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

// ---------------------------------------------------------------------------
// Coding dispatch: coding_dispatch.h helpers vs virtual calls, same write
// and read sequence against two independently-booked policy instances.

struct Books {
  PcmTiming timing;
  CounterSet counters;
  EnergyCounters energy;
  WearTracker wear{8};
  unsigned channel = 0;

  RegionContext ctx() {
    RegionContext c{&timing, &counters, &energy, &wear, /*line_bits=*/512};
    c.channel = &channel;
    c.channels = 2;
    return c;
  }
};

std::unique_ptr<CodingPolicy> build(CodingKind kind, const RegionContext& ctx) {
  // The classic kinds resolve the legacy code= key; the sectioned kinds
  // (polar, ts-constrained) fall through to their family defaults.
  RegionCode code = resolve_region_code(kind, /*override_name=*/"",
                                        /*legacy_code=*/"rs23-inv",
                                        /*line_bits=*/512);
  return make_coding_policy(kind, ctx, std::move(code), /*lines_per_row=*/8,
                            /*erased_start=*/false,
                            /*fnw_fast_fraction=*/0.5, /*seed=*/42);
}

void expect_plans_equal(const IssuePlan& a, const IssuePlan& b, int step) {
  EXPECT_EQ(a.pre_ns, b.pre_ns) << "step " << step;
  EXPECT_EQ(a.program_ns, b.program_ns) << "step " << step;
  EXPECT_EQ(a.post_ns, b.post_ns) << "step " << step;
  EXPECT_EQ(a.write_class, b.write_class) << "step " << step;
}

void drive_coding(CodingKind kind, std::uint64_t drive_seed) {
  Books fast_books, ref_books;
  auto fast = build(kind, fast_books.ctx());
  auto ref = build(kind, ref_books.ctx());
  ASSERT_EQ(fast->kind(), kind);

  Rng rng(drive_seed);
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t key = rng.next_below(16);
    const unsigned line = static_cast<unsigned>(rng.next_below(8));
    const unsigned ch = static_cast<unsigned>(rng.next_below(2));
    fast_books.channel = ch;
    ref_books.channel = ch;
    IssuePlan pf, pr;
    switch (rng.next_below(4)) {
      case 0: {  // demand / internal write, occasionally fault-demoted
        const bool internal = rng.next_below(8) == 0;
        const bool demoted = !internal && rng.next_below(8) == 0;
        const CodingPolicy::WriteBegin bf =
            coding_begin_write(kind, *fast, key, line, &pf);
        const CodingPolicy::WriteBegin br =
            ref->begin_write(key, line, &pr);
        EXPECT_EQ(bf.cls, br.cls) << "step " << i;
        EXPECT_EQ(bf.cold, br.cold) << "step " << i;
        if (demoted) {
          pf.write_class = WriteClass::kAlpha;
          pr.write_class = WriteClass::kAlpha;
        }
        EXPECT_EQ(coding_finish_write(kind, *fast, bf, demoted, key, key,
                                      line, internal, &pf),
                  ref->finish_write(br, demoted, key, key, line, internal,
                                    &pr))
            << "step " << i;
        expect_plans_equal(pf, pr, i);
        break;
      }
      case 1: {  // remap re-record mid-write
        const CodingPolicy::WriteBegin bf =
            coding_begin_write(kind, *fast, key, line, &pf);
        const CodingPolicy::WriteBegin br =
            ref->begin_write(key, line, &pr);
        coding_note_remap(kind, *fast, key + 16, line);
        ref->note_remap(key + 16, line);
        EXPECT_EQ(coding_finish_write(kind, *fast, bf, false, key + 16,
                                      key + 16, line, false, &pf),
                  ref->finish_write(br, false, key + 16, key + 16, line,
                                    false, &pr))
            << "step " << i;
        expect_plans_equal(pf, pr, i);
        break;
      }
      case 2: {  // read
        coding_read_energy(kind, *fast, &pf);
        ref->read_energy(&pr);
        coding_read_extras(kind, *fast, &pf);
        ref->read_extras(&pr);
        expect_plans_equal(pf, pr, i);
        break;
      }
      case 3: {  // refresh stays virtual on both sides (cold path)
        EXPECT_EQ(fast->refresh_row(key, key), ref->refresh_row(key, key))
            << "step " << i;
        break;
      }
    }
  }

  // The whole sequence must have written identical books.
  EXPECT_EQ(fast_books.counters.all(), ref_books.counters.all());
  EXPECT_DOUBLE_EQ(fast_books.energy.read_pj(), ref_books.energy.read_pj());
  EXPECT_DOUBLE_EQ(fast_books.energy.write_pj(), ref_books.energy.write_pj());
  EXPECT_DOUBLE_EQ(fast_books.energy.refresh_pj(),
                   ref_books.energy.refresh_pj());
}

TEST(DispatchEquivalence, RawCodingMatchesVirtual) {
  drive_coding(CodingKind::kRaw, 201);
}

TEST(DispatchEquivalence, SymmetricCodingMatchesVirtual) {
  drive_coding(CodingKind::kSymmetric, 202);
}

TEST(DispatchEquivalence, FlipNWriteCodingMatchesVirtual) {
  drive_coding(CodingKind::kFlipNWrite, 203);
}

TEST(DispatchEquivalence, WomWideCodingMatchesVirtual) {
  drive_coding(CodingKind::kWomWide, 204);
}

TEST(DispatchEquivalence, WomHiddenCodingMatchesVirtual) {
  drive_coding(CodingKind::kWomHidden, 205);
}

TEST(DispatchEquivalence, PolarCodingMatchesVirtual) {
  drive_coding(CodingKind::kPolar, 206);
}

TEST(DispatchEquivalence, TsConstrainedCodingMatchesVirtual) {
  drive_coding(CodingKind::kTsConstrained, 207);
}

// The factory's kind() <-> dynamic-type contract the static_casts in
// coding_dispatch.h rely on.
TEST(DispatchEquivalence, FactoryKindMatchesDynamicType) {
  Books books;
  const RegionContext ctx = books.ctx();
  EXPECT_NE(dynamic_cast<RawCoding*>(build(CodingKind::kRaw, ctx).get()),
            nullptr);
  EXPECT_NE(
      dynamic_cast<SymmetricCoding*>(build(CodingKind::kSymmetric, ctx).get()),
      nullptr);
  EXPECT_NE(
      dynamic_cast<FnwCoding*>(build(CodingKind::kFlipNWrite, ctx).get()),
      nullptr);
  EXPECT_NE(dynamic_cast<WomCoding*>(build(CodingKind::kWomWide, ctx).get()),
            nullptr);
  EXPECT_NE(dynamic_cast<WomCoding*>(build(CodingKind::kWomHidden, ctx).get()),
            nullptr);
  EXPECT_NE(dynamic_cast<WomCoding*>(build(CodingKind::kPolar, ctx).get()),
            nullptr);
  EXPECT_NE(
      dynamic_cast<WomCoding*>(build(CodingKind::kTsConstrained, ctx).get()),
      nullptr);
}

}  // namespace
}  // namespace wompcm
