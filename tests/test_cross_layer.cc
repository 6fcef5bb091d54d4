// Cross-layer consistency: the timing model's write classification (the
// row table's generation rule, arch/row_table.h) must agree with the
// bit-exact functional codec (PageCodec) on arbitrary write sequences — the
// guarantee that lets the timing simulator skip data payloads.
#include <gtest/gtest.h>

#include <map>

#include "arch/row_table.h"
#include "common/rng.h"
#include "wom/page_codec.h"
#include "wom/registry.h"

namespace wompcm {
namespace {

BitVec random_bits(Rng& rng, std::size_t n) {
  BitVec v(n);
  for (std::size_t i = 0; i < n; ++i) v.set(i, rng.next_bool(0.5));
  return v;
}

class CrossLayer : public ::testing::TestWithParam<const char*> {};

TEST_P(CrossLayer, TrackerMatchesCodecOnRandomStreams) {
  const WomCodePtr code = make_code(GetParam());
  ASSERT_NE(code, nullptr);
  ASSERT_FALSE(code->raises_bits());

  constexpr unsigned kLines = 4;
  constexpr unsigned kRows = 3;
  const std::size_t line_bits = code->data_bits() * 8;

  // Timing layer: per-line generations, erased start (so the codec's
  // initialized wit image matches the table's state), claimed and recorded
  // the way CodingPolicy drives them.
  const unsigned t = code->max_writes();
  RowTable rows(kLines, /*generations=*/true, /*fault_states=*/false);
  // Functional layer: one codec per (row, line).
  std::map<std::pair<unsigned, unsigned>, PageCodec> codecs;

  Rng rng(2024);
  for (int step = 0; step < 600; ++step) {
    const unsigned row = static_cast<unsigned>(rng.next_below(kRows));
    const unsigned line = static_cast<unsigned>(rng.next_below(kLines));

    // Occasionally refresh a whole row in both layers.
    if (rng.next_bool(0.05)) {
      if (const std::uint32_t id = rows.find(row)) rows.erase(id);
      for (unsigned l = 0; l < kLines; ++l) {
        const auto it = codecs.find({row, l});
        if (it != codecs.end()) it->second.refresh();
      }
      continue;
    }

    auto [it, fresh] = codecs.try_emplace({row, line}, code, line_bits);
    PageCodec& codec = it->second;
    (void)fresh;

    const BitVec data = random_bits(rng, line_bits);
    const PageWriteResult fr = codec.write(data);
    const std::uint32_t id = rows.claim(row, /*initial_gen=*/0);
    const auto tr = rows.record_write(id, line, t);

    ASSERT_EQ(tr.cls, fr.write_class)
        << GetParam() << " step " << step << " row " << row << " line "
        << line;
    // The agreed-fast writes must be physically RESET-only.
    if (tr.cls == WriteClass::kResetOnly) {
      EXPECT_EQ(fr.set_pulses, 0u);
    }
    EXPECT_EQ(codec.read(), data);
    EXPECT_EQ(rows.generation(id, line), codec.generation());
  }
}

INSTANTIATE_TEST_SUITE_P(Codes, CrossLayer,
                         ::testing::Values("rs23-inv", "marker-k2t3-inv",
                                           "parity-t4-inv",
                                           "search-k2n5t3-inv"));

TEST(SearchRegistry, BuildsTheDiscoveredCode) {
  const WomCodePtr code = make_code("search-k2n5t3");
  ASSERT_NE(code, nullptr);
  EXPECT_EQ(code->data_bits(), 2u);
  EXPECT_EQ(code->wits(), 5u);
  EXPECT_EQ(code->max_writes(), 3u);
  EXPECT_DOUBLE_EQ(code->overhead(), 1.5);
  // Deterministic: the same name yields the same tables.
  const WomCodePtr again = make_code("search-k2n5t3");
  for (unsigned x = 0; x < 4; ++x) {
    EXPECT_EQ(code->encode(x, 0, code->initial_state()),
              again->encode(x, 0, again->initial_state()));
  }
  // Impossible parameters yield null, as do malformed names.
  EXPECT_EQ(make_code("search-k2n2t2"), nullptr);
  EXPECT_EQ(make_code("search-k2n5"), nullptr);
}

TEST(SearchRegistry, DiscoveredCodeDrivesAnArchitecture) {
  // The searched 3-write code plugs straight into the WOM architectures.
  const WomCodePtr inv = make_code("search-k2n5t3-inv");
  ASSERT_NE(inv, nullptr);
  EXPECT_FALSE(inv->raises_bits());
  EXPECT_EQ(inv->max_writes(), 3u);
}

}  // namespace
}  // namespace wompcm
