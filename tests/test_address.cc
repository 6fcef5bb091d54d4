#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "common/address.h"
#include "common/rng.h"

namespace wompcm {

// Names the mapping in ctest names (gtest would print the enum's byte).
void PrintTo(AddressMapping m, std::ostream* os) { *os << to_string(m); }

namespace {

TEST(MemoryGeometry, PaperDefaultsAreValid) {
  MemoryGeometry g;
  std::string why;
  EXPECT_TRUE(g.valid(&why)) << why;
  EXPECT_EQ(g.data_width_bits(), 64u);   // 4 bits x 16 devices
  EXPECT_EQ(g.line_bytes(), 64u);        // 64-bit bus, burst of 8
  EXPECT_EQ(g.row_bytes(), 16384u);      // 2048 cols x 4 bits x 16 devices
  EXPECT_EQ(g.lines_per_row(), 256u);
}

TEST(MemoryGeometry, RejectsZeroFields) {
  MemoryGeometry g;
  g.ranks = 0;
  EXPECT_FALSE(g.valid());
}

TEST(MemoryGeometry, RejectsNonPow2Counts) {
  MemoryGeometry g;
  g.banks_per_rank = 12;
  EXPECT_FALSE(g.valid());
}

TEST(MemoryGeometry, CapacityArithmetic) {
  MemoryGeometry g;
  g.channels = 1;
  g.ranks = 2;
  g.banks_per_rank = 4;
  g.rows_per_bank = 8;
  EXPECT_EQ(g.rows_total(), 64u);
  EXPECT_EQ(g.capacity_bytes(), 64u * g.row_bytes());
}

TEST(AddressMapper, DecodeEncodeRoundTripExplicit) {
  MemoryGeometry g;
  AddressMapper mapper(g);
  DecodedAddr d;
  d.channel = 0;
  d.rank = 7;
  d.bank = 13;
  d.row = 12345;
  d.col = 200;
  const Addr a = mapper.encode(d);
  EXPECT_EQ(mapper.decode(a), d);
}

TEST(AddressMapper, FlatBankIsUnique) {
  MemoryGeometry g;
  g.ranks = 4;
  g.banks_per_rank = 8;
  AddressMapper mapper(g);
  std::vector<bool> seen(mapper.num_flat_banks(), false);
  for (unsigned r = 0; r < g.ranks; ++r) {
    for (unsigned b = 0; b < g.banks_per_rank; ++b) {
      DecodedAddr d;
      d.rank = r;
      d.bank = b;
      const unsigned f = mapper.flat_bank(d);
      ASSERT_LT(f, seen.size());
      EXPECT_FALSE(seen[f]);
      seen[f] = true;
    }
  }
}

TEST(AddressMapper, LineOffsetIgnored) {
  MemoryGeometry g;
  AddressMapper mapper(g);
  // Addresses within the same 64B line decode identically.
  const Addr base = 0x12345678900ull & ~Addr{63};
  const DecodedAddr d0 = mapper.decode(base);
  for (Addr off = 1; off < 64; ++off) {
    EXPECT_EQ(mapper.decode(base + off), d0);
  }
}

class MappingRoundTrip : public ::testing::TestWithParam<AddressMapping> {};

TEST_P(MappingRoundTrip, RandomAddresses) {
  MemoryGeometry g;
  g.mapping = GetParam();
  AddressMapper mapper(g);
  Rng rng(99);
  for (int i = 0; i < 2000; ++i) {
    const Addr a = (rng.next_u64() % g.capacity_bytes()) & ~Addr{63};
    const DecodedAddr d = mapper.decode(a);
    EXPECT_LT(d.channel, g.channels);
    EXPECT_LT(d.rank, g.ranks);
    EXPECT_LT(d.bank, g.banks_per_rank);
    EXPECT_LT(d.row, g.rows_per_bank);
    EXPECT_LT(d.col, g.lines_per_row());
    EXPECT_EQ(mapper.encode(d), a);
  }
}

TEST_P(MappingRoundTrip, DistinctCoordinatesDistinctAddresses) {
  MemoryGeometry g;
  g.ranks = 2;
  g.banks_per_rank = 2;
  g.rows_per_bank = 4;
  g.mapping = GetParam();
  AddressMapper mapper(g);
  std::set<Addr> seen;
  for (unsigned rank = 0; rank < 2; ++rank) {
    for (unsigned bank = 0; bank < 2; ++bank) {
      for (unsigned row = 0; row < 4; ++row) {
        for (unsigned col = 0; col < g.lines_per_row(); col += 37) {
          DecodedAddr d{0, rank, bank, row, col};
          EXPECT_TRUE(seen.insert(mapper.encode(d)).second);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllMappings, MappingRoundTrip,
                         ::testing::Values(AddressMapping::kRowRankBankCol,
                                           AddressMapping::kRowBankRankCol,
                                           AddressMapping::kRankBankRowCol));

TEST(Log2Exact, PowersOfTwo) {
  EXPECT_EQ(log2_exact(1), 0u);
  EXPECT_EQ(log2_exact(2), 1u);
  EXPECT_EQ(log2_exact(1024), 10u);
  EXPECT_TRUE(is_pow2(4096));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(12));
}

}  // namespace
}  // namespace wompcm
