// Tests for the sectioned streaming codec layer: bit-identity of the
// sectioned PageCodec against a whole-page reference loop over every
// registered code, section independence, per-line generation tracking of
// the sectioned WOM regions, and the properties of the new first-class
// families (polar, time-space constrained).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "arch/coding_policy.h"
#include "arch/row_table.h"
#include "common/rng.h"
#include "pcm/energy.h"
#include "pcm/timing.h"
#include "stats/stats.h"
#include "wom/page_codec.h"
#include "wom/registry.h"

namespace wompcm {
namespace {

BitVec random_bits(Rng& rng, std::size_t n) {
  BitVec v(n);
  for (std::size_t i = 0; i < n; ++i) v.set(i, rng.next_bool(0.5));
  return v;
}

// The historical whole-page codec: one page-wide generation, a single
// symbol loop per write, always through the virtual WomCode interface.
// The sectioned PageCodec must reproduce it bit for bit on full-page
// writes (sections stay in lockstep, and sections occupy disjoint bit
// ranges, so per-section pulse counts sum to the page-level transition
// counts).
class ReferencePage {
 public:
  ReferencePage(WomCodePtr code, std::size_t data_bits)
      : code_(std::move(code)), data_bits_(data_bits) {
    symbols_ = data_bits_ / code_->data_bits();
    const BitVec init = code_->initial_state();
    for (std::size_t s = 0; s < symbols_; ++s) fresh_.append(init);
    image_ = fresh_;
    const unsigned k = code_->data_bits();
    bitrev_.resize(std::size_t{1} << k);
    for (std::uint32_t v = 0; v < bitrev_.size(); ++v) {
      std::uint16_t r = 0;
      for (unsigned b = 0; b < k; ++b) {
        r = static_cast<std::uint16_t>(r | (((v >> b) & 1u) << (k - 1 - b)));
      }
      bitrev_[v] = r;
    }
  }

  PageWriteResult write(const BitVec& data) {
    PageWriteResult r;
    if (generation_ == code_->max_writes()) {
      r.write_class = WriteClass::kAlpha;
      r.set_pulses += image_.set_transitions_to(fresh_);
      r.reset_pulses += image_.reset_transitions_to(fresh_);
      image_.assign_from(fresh_);
      generation_ = 0;
    }
    const unsigned k = code_->data_bits();
    const unsigned n = code_->wits();
    BitVec next = image_;
    for (std::size_t s = 0; s < symbols_; ++s) {
      const unsigned value = bitrev_[data.extract_word(s * k, k)];
      BitVec sym;
      image_.slice_into(s * n, n, sym);
      const BitVec enc = code_->encode(value, generation_, sym);
      for (unsigned b = 0; b < n; ++b) next.set(s * n + b, enc.get(b));
    }
    r.set_pulses += image_.set_transitions_to(next);
    r.reset_pulses += image_.reset_transitions_to(next);
    image_.assign_from(next);
    ++generation_;
    r.generation_after = generation_;
    return r;
  }

  BitVec read() const {
    const unsigned k = code_->data_bits();
    const unsigned n = code_->wits();
    BitVec out(data_bits_);
    for (std::size_t s = 0; s < symbols_; ++s) {
      BitVec sym;
      image_.slice_into(s * n, n, sym);
      out.deposit_word(s * k, k, bitrev_[code_->decode(sym)]);
    }
    return out;
  }

  std::size_t refresh() {
    const std::size_t sets = image_.set_transitions_to(fresh_);
    image_.assign_from(fresh_);
    generation_ = 0;
    return sets;
  }

  const BitVec& image() const { return image_; }

 private:
  WomCodePtr code_;
  std::size_t data_bits_;
  std::size_t symbols_ = 0;
  unsigned generation_ = 0;
  BitVec fresh_;
  BitVec image_;
  std::vector<std::uint16_t> bitrev_;
};

// --- Sectioned vs whole-page bit-identity, every registered symbol code ---

class SectionedEquivalence : public ::testing::TestWithParam<std::string> {};

TEST_P(SectionedEquivalence, MatchesWholePageReferenceAcrossGenerations) {
  WomCodePtr code = make_code(GetParam());
  ASSERT_NE(code, nullptr);
  const unsigned t = code->max_writes();
  const std::size_t bits = code->data_bits() * 17;  // odd symbol count
  ReferencePage ref(make_code(GetParam()), bits);
  PageCodec page(std::move(code), bits);

  Rng rng(0xb10c + std::hash<std::string>{}(GetParam()) % 977);
  // Enough writes to cross the rewrite limit (alpha re-init) at least
  // three times, plus a mid-sequence refresh.
  const int writes = static_cast<int>(3 * t + 2);
  for (int i = 0; i < writes; ++i) {
    const BitVec d = random_bits(rng, bits);
    const PageWriteResult a = page.write(d);
    const PageWriteResult b = ref.write(d);
    EXPECT_EQ(a.write_class, b.write_class) << GetParam() << " write " << i;
    EXPECT_EQ(a.set_pulses, b.set_pulses) << GetParam() << " write " << i;
    EXPECT_EQ(a.reset_pulses, b.reset_pulses) << GetParam() << " write " << i;
    EXPECT_EQ(a.generation_after, b.generation_after)
        << GetParam() << " write " << i;
    EXPECT_TRUE(page.image() == ref.image()) << GetParam() << " write " << i;
    EXPECT_TRUE(page.read() == ref.read()) << GetParam() << " write " << i;
    EXPECT_TRUE(page.read() == d) << GetParam() << " write " << i;
  }
  EXPECT_EQ(page.refresh(), ref.refresh()) << GetParam();
  EXPECT_TRUE(page.image() == ref.image()) << GetParam();
  EXPECT_EQ(page.generation(), 0u);
}

INSTANTIATE_TEST_SUITE_P(AllKnownCodes, SectionedEquivalence,
                         ::testing::ValuesIn(known_code_names()));

// --- Registry: every block-codec name resolves with consistent info ---

TEST(BlockCodecRegistry, KnownNamesResolveWithConsistentInfo) {
  for (const std::string& name : known_block_codec_names()) {
    const BlockCodecPtr codec = make_block_codec(name);
    ASSERT_NE(codec, nullptr) << name;
    EXPECT_EQ(codec->name(), name);
    const CodeInfo info = code_info(name);
    ASSERT_TRUE(info.valid) << name;
    EXPECT_EQ(info.name, name);
    EXPECT_EQ(info.data_bits, codec->section_data_bits()) << name;
    EXPECT_EQ(info.wits, codec->section_wits()) << name;
    EXPECT_EQ(info.max_writes, codec->max_writes()) << name;
    EXPECT_DOUBLE_EQ(info.overhead, codec->overhead()) << name;
    EXPECT_DOUBLE_EQ(info.wear_bound, codec->wear_bound()) << name;
    EXPECT_EQ(info.lut, codec->lut_backed()) << name;
    EXPECT_EQ(info.inverted, !codec->raises_bits()) << name;
    EXPECT_GE(codec->max_writes(), 1u) << name;
    EXPECT_GE(codec->section_wits(), codec->section_data_bits()) << name;
  }
  EXPECT_EQ(make_block_codec("no-such-code"), nullptr);
  EXPECT_FALSE(code_info("no-such-code").valid);
  // Malformed tsc- names fail cleanly instead of resolving to something.
  EXPECT_EQ(make_block_codec("tsc-rs23"), nullptr);
  EXPECT_EQ(make_block_codec("tsc-rs23x1-inv"), nullptr);
  EXPECT_EQ(make_block_codec("tsc-rs23x9-inv"), nullptr);
  EXPECT_EQ(make_block_codec("tsc-nopex4-inv"), nullptr);
}

// --- Section independence: a write touches only its own bit range ---

class SectionIndependence : public ::testing::TestWithParam<std::string> {};

TEST_P(SectionIndependence, WritingOneSectionLeavesOthersUntouched) {
  BlockCodecPtr codec = make_block_codec(GetParam());
  ASSERT_NE(codec, nullptr);
  const unsigned n = codec->section_wits();
  const unsigned k = codec->section_data_bits();
  constexpr std::size_t kSections = 3;
  BitVec image(kSections * n);
  for (std::size_t s = 0; s < kSections; ++s) codec->erase_section(image, s);
  const BitVec before = image;

  Rng rng(77);
  BitVec data = random_bits(rng, kSections * k);
  unsigned gen = 0;
  const SectionWrite w = codec->write_section(image, data, /*section=*/1, &gen);
  EXPECT_EQ(gen, 1u);
  EXPECT_FALSE(w.alpha);
  for (unsigned b = 0; b < n; ++b) {
    EXPECT_EQ(image.get(0 * n + b), before.get(0 * n + b)) << GetParam();
    EXPECT_EQ(image.get(2 * n + b), before.get(2 * n + b)) << GetParam();
  }
  // And the written section reads back its own slice of the data.
  BitVec out(kSections * k);
  codec->read_section(image, 1, gen, out);
  for (unsigned b = 0; b < k; ++b) {
    EXPECT_EQ(out.get(k + b), data.get(k + b)) << GetParam() << " bit " << b;
  }
}

INSTANTIATE_TEST_SUITE_P(AllBlockCodecs, SectionIndependence,
                         ::testing::ValuesIn(known_block_codec_names()));

// --- Sectioned WOM regions track one generation per line ---

TEST(SectionedTracking, WomCodingTracksOneGenerationPerLine) {
  // Every write, remap and refresh touches all sections of a line together,
  // so the sections share the line's generation: a sectioned region's rows
  // hold one generation per line, not lines x sections.
  constexpr std::uint64_t kLineBits = 512;
  constexpr unsigned kLinesPerRow = 8;
  PcmTiming timing;
  CounterSet counters;
  EnergyCounters energy;
  for (const CodingKind kind :
       {CodingKind::kPolar, CodingKind::kTsConstrained}) {
    RowTable rows(kLinesPerRow, /*generations=*/true, /*fault_states=*/false);
    const RegionContext ctx{&timing, &counters, &energy, &rows, kLineBits};
    RegionCode rc = resolve_region_code(kind, "", "", kLineBits);
    ASSERT_GT(kLineBits / rc.data_bits, 1u) << rc.name;  // really sectioned
    const std::string name = rc.name;
    CodingPolicy coding(kind, ctx, std::move(rc), /*erased_start=*/false,
                        /*fnw_fast_fraction=*/0.0, /*seed=*/1);

    IssuePlan plan;
    const auto first = coding.begin_write(/*key=*/3, /*line=*/5, &plan);
    EXPECT_EQ(first.cls, WriteClass::kAlpha) << name;  // cold: never written
    EXPECT_EQ(rows.generation(first.id, 5), 1u) << name;
    EXPECT_EQ(rows.generation(first.id, 4), RowTable::kUnknownGen) << name;
    const auto second = coding.begin_write(3, 5, &plan);
    EXPECT_EQ(second.cls, WriteClass::kResetOnly) << name;
    EXPECT_EQ(second.id, first.id) << name;
    EXPECT_EQ(rows.generation(first.id, 5), 2u) << name;  // one per write
    EXPECT_EQ(rows.rows(), 1u) << name;
  }
}

TEST(SectionedTracking, RefreshRestoresTheWholeLineBudget) {
  // A line driven to the code's rewrite limit puts its row in the refresh
  // table; one refresh pre-erases all of its sections at once.
  constexpr std::uint64_t kLineBits = 512;
  constexpr unsigned kLinesPerRow = 4;
  PcmTiming timing;
  CounterSet counters;
  EnergyCounters energy;
  for (const CodingKind kind :
       {CodingKind::kPolar, CodingKind::kTsConstrained}) {
    RowTable rows(kLinesPerRow, /*generations=*/true, /*fault_states=*/false);
    const RegionContext ctx{&timing, &counters, &energy, &rows, kLineBits};
    RegionCode rc = resolve_region_code(kind, "", "", kLineBits);
    const std::string name = rc.name;
    const unsigned t_max = rc.max_writes;
    CodingPolicy coding(kind, ctx, std::move(rc), /*erased_start=*/false,
                        /*fnw_fast_fraction=*/0.0, /*seed=*/1);

    IssuePlan plan;
    std::uint32_t id = 0;
    for (unsigned i = 0; i < t_max; ++i) {
      id = coding.begin_write(9, 2, &plan).id;
    }
    EXPECT_EQ(rows.generation(id, 2), t_max) << name;
    EXPECT_TRUE(rows.has_limit_lines(id)) << name;

    EXPECT_TRUE(coding.refresh_row(/*key=*/9)) << name;
    EXPECT_FALSE(rows.has_limit_lines(id)) << name;
    EXPECT_EQ(rows.generation(id, 2), 0u) << name;
    EXPECT_EQ(coding.begin_write(9, 2, &plan).cls, WriteClass::kResetOnly)
        << name;
  }
}

TEST(SectionedTracking, ErasedStartMakesTheFirstLineWriteResetOnly) {
  // The WOM-cache formats its array at boot: the first write to a sectioned
  // line is neither alpha nor cold.
  constexpr std::uint64_t kLineBits = 512;
  constexpr unsigned kLinesPerRow = 4;
  PcmTiming timing;
  CounterSet counters;
  EnergyCounters energy;
  RowTable rows(kLinesPerRow, /*generations=*/true, /*fault_states=*/false);
  const RegionContext ctx{&timing, &counters, &energy, &rows, kLineBits};
  CodingPolicy coding(
      CodingKind::kPolar, ctx,
      resolve_region_code(CodingKind::kPolar, "", "", kLineBits),
      /*erased_start=*/true, /*fnw_fast_fraction=*/0.0, /*seed=*/1);
  IssuePlan plan;
  const auto rec = coding.begin_write(0, 0, &plan);
  EXPECT_EQ(rec.cls, WriteClass::kResetOnly);
  EXPECT_FALSE(rec.cold);
  EXPECT_EQ(rows.generation(rec.id, 0), 1u);
  EXPECT_EQ(rows.generation(rec.id, 1), 0u);  // the rest of the row: erased
}

// --- Polar family properties ---

TEST(PolarCode, ParametersMatchConstruction) {
  // n = 2^m cells, k = m+1 data bits, t = (2^(m-1) - 1) / k + 1 writes.
  const WomCodePtr m5 = make_code("polar-m5");
  ASSERT_NE(m5, nullptr);
  EXPECT_EQ(m5->wits(), 32u);
  EXPECT_EQ(m5->data_bits(), 6u);
  EXPECT_EQ(m5->max_writes(), 3u);
  EXPECT_TRUE(m5->raises_bits());

  const WomCodePtr m7 = make_code("polar-m7-inv");
  ASSERT_NE(m7, nullptr);
  EXPECT_EQ(m7->wits(), 128u);
  EXPECT_EQ(m7->data_bits(), 8u);
  EXPECT_EQ(m7->max_writes(), 8u);
  EXPECT_FALSE(m7->raises_bits());

  EXPECT_EQ(make_code("polar-m3"), nullptr);   // below the supported range
  EXPECT_EQ(make_code("polar-m9"), nullptr);   // above it
  EXPECT_EQ(make_code("polar-mx"), nullptr);
}

class PolarProperties : public ::testing::TestWithParam<std::string> {};

TEST_P(PolarProperties, TWritesAlwaysSucceedMonotonicallyAndRoundTrip) {
  const WomCodePtr code = make_code(GetParam());
  ASSERT_NE(code, nullptr);
  const unsigned k = code->data_bits();
  const unsigned t = code->max_writes();
  const bool inverted = !code->raises_bits();
  Rng rng(0x9019);
  for (int round = 0; round < 200; ++round) {
    BitVec state = code->initial_state();
    for (unsigned g = 0; g < t; ++g) {
      const unsigned value =
          static_cast<unsigned>(rng.next_below(1ull << k));
      // The t-write guarantee: an in-budget write never throws (the
      // Gaussian elimination always finds an in-direction correction).
      const BitVec next = code->encode(value, g, state);
      // Monotone in the code's programming direction.
      for (std::size_t b = 0; b < next.size(); ++b) {
        if (inverted) {
          EXPECT_LE(next.get(b), state.get(b)) << GetParam();
        } else {
          EXPECT_GE(next.get(b), state.get(b)) << GetParam();
        }
      }
      EXPECT_EQ(code->decode(next), value) << GetParam() << " gen " << g;
      state = next;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Variants, PolarProperties,
                         ::testing::Values("polar-m4", "polar-m4-inv",
                                           "polar-m5", "polar-m6-inv",
                                           "polar-m7-inv", "polar-m8"));

TEST(PolarCode, EncodeValidatesArguments) {
  const WomCodePtr code = make_code("polar-m5-inv");
  const BitVec init = code->initial_state();
  EXPECT_THROW(code->encode(1u << 6, 0, init), std::invalid_argument);
  EXPECT_THROW(code->encode(0, /*generation=*/3, init),
               std::invalid_argument);
  EXPECT_THROW(code->encode(0, 0, BitVec(16)), std::invalid_argument);
}

// --- Time-space constrained family properties ---

TEST(TsConstrainedCodec, ParametersAndWearBound) {
  const BlockCodecPtr c = make_block_codec("tsc-rs23x4-inv");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->name(), "tsc-rs23x4-inv");
  EXPECT_EQ(c->section_data_bits(), 32u);  // 16 rs23 symbols
  EXPECT_EQ(c->section_wits(), 192u);      // 4 replicas x 16 x 3 wits
  EXPECT_EQ(c->max_writes(), 8u);          // 4 replicas x t_base = 2
  EXPECT_FALSE(c->raises_bits());
  EXPECT_DOUBLE_EQ(c->wear_bound(), 0.25);  // one replica in four per write
  EXPECT_DOUBLE_EQ(c->overhead(), 5.0);     // 192/32 - 1
}

TEST(TsConstrainedCodec, DecodeIsGenerationAware) {
  // The live replica depends on the write count: replica q = (gen-1)/t_base
  // holds the data, so decode must be told the generation — the property
  // that forces the BlockCodec seam over the symbol-at-a-time WomCode one.
  BlockCodecPtr c = make_block_codec("tsc-rs23x4-inv");
  ASSERT_NE(c, nullptr);
  const unsigned k = c->section_data_bits();
  const unsigned n = c->section_wits();
  BitVec image(n);
  c->erase_section(image, 0);
  Rng rng(0x75c);
  unsigned gen = 0;
  for (unsigned w = 0; w < c->max_writes(); ++w) {
    const BitVec d = random_bits(rng, k);
    const SectionWrite r = c->write_section(image, d, 0, &gen);
    EXPECT_FALSE(r.alpha) << "write " << w;
    EXPECT_EQ(r.set_pulses, 0u) << "write " << w;  // inverted: RESET-only
    BitVec out(k);
    c->read_section(image, 0, gen, out);
    EXPECT_TRUE(out == d) << "write " << w;
  }
  // One more write exhausts the budget: alpha re-init, then round-trip.
  const BitVec d = random_bits(rng, k);
  const SectionWrite r = c->write_section(image, d, 0, &gen);
  EXPECT_TRUE(r.alpha);
  EXPECT_GT(r.set_pulses, 0u);
  EXPECT_EQ(gen, 1u);
  BitVec out(k);
  c->read_section(image, 0, gen, out);
  EXPECT_TRUE(out == d);
}

TEST(TsConstrainedCodec, WritesLeaveRetiredReplicasUntouched) {
  BlockCodecPtr c = make_block_codec("tsc-rs23x4-inv");
  ASSERT_NE(c, nullptr);
  const unsigned k = c->section_data_bits();
  const unsigned n = c->section_wits();
  const unsigned replica_wits = n / 4;
  BitVec image(n);
  c->erase_section(image, 0);
  Rng rng(0x75d);
  unsigned gen = 0;
  // Two writes land in replica 0 (t_base = 2 for rs23).
  c->write_section(image, random_bits(rng, k), 0, &gen);
  c->write_section(image, random_bits(rng, k), 0, &gen);
  const BitVec snapshot = image;
  // The third write moves to replica 1; replica 0's cells must not change
  // (that is the whole point of the per-cell write-frequency bound).
  c->write_section(image, random_bits(rng, k), 0, &gen);
  for (unsigned b = 0; b < replica_wits; ++b) {
    EXPECT_EQ(image.get(b), snapshot.get(b)) << "replica-0 bit " << b;
  }
}

TEST(TsConstrainedCodec, ReadBeforeFirstWriteThrows) {
  BlockCodecPtr c = make_block_codec("tsc-rs23x4-inv");
  BitVec image(c->section_wits());
  c->erase_section(image, 0);
  BitVec out(c->section_data_bits());
  EXPECT_THROW(c->read_section(image, 0, /*generation=*/0, out),
               std::logic_error);
}

TEST(TsConstrainedCodec, PageCodecStreamsAcrossSectionsAndGenerations) {
  // Two sections' worth of data through the PageCodec front end, across a
  // full budget cycle, including the partial LUT path (rs23-inv is
  // LUT-eligible, so the per-symbol encode inside each replica is too).
  BlockCodecPtr c = make_block_codec("tsc-marker-k2t4x2-inv");
  ASSERT_NE(c, nullptr);
  const std::size_t bits = 2 * c->section_data_bits();
  const unsigned t = c->max_writes();
  PageCodec page(std::move(c), bits);
  Rng rng(0x75e);
  for (unsigned w = 0; w < 2 * t + 1; ++w) {
    const BitVec d = random_bits(rng, bits);
    const PageWriteResult r = page.write(d);
    EXPECT_EQ(r.write_class, w % t == 0 && w > 0 ? WriteClass::kAlpha
                                                 : WriteClass::kResetOnly)
        << "write " << w;
    EXPECT_TRUE(page.read() == d) << "write " << w;
  }
}

// --- LUT observability counters on the PageCodec front end ---

TEST(BlockCodec, LutCountersTrackTheEncodePath) {
  // rs23-inv is LUT-eligible; every write is a hit.
  PageCodec lut_page(make_code("rs23-inv"), 32);
  Rng rng(0xa11);
  lut_page.write(random_bits(rng, 32));
  lut_page.write(random_bits(rng, 32));
  EXPECT_EQ(lut_page.lut_hits(), 2u);
  EXPECT_EQ(lut_page.lut_fallbacks(), 0u);

  // polar-m7 is far beyond EncodeLut's wits bound; every write falls back.
  PageCodec wide_page(make_code("polar-m7-inv"), 16);
  wide_page.write(random_bits(rng, 16));
  EXPECT_EQ(wide_page.lut_hits(), 0u);
  EXPECT_EQ(wide_page.lut_fallbacks(), 1u);
}

}  // namespace
}  // namespace wompcm
