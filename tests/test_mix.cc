// Tests of the multi-programmed trace mixer.
#include <gtest/gtest.h>

#include "trace/mix.h"
#include "trace/profiles.h"
#include "trace/synthetic.h"

namespace wompcm {
namespace {

std::unique_ptr<TraceSource> vec(std::vector<TraceRecord> r) {
  return std::make_unique<VectorTraceSource>(std::move(r));
}

// Records are told apart by their row.
DecodedAddr row(unsigned r) {
  DecodedAddr d;
  d.row = r;
  return d;
}

TEST(MixTrace, RejectsEmptyOrNull) {
  EXPECT_THROW(MixTraceSource({}), std::invalid_argument);
  std::vector<std::unique_ptr<TraceSource>> v;
  v.push_back(nullptr);
  EXPECT_THROW(MixTraceSource(std::move(v)), std::invalid_argument);
}

TEST(MixTrace, SingleSourcePassesThrough) {
  std::vector<TraceRecord> records = {{0, AccessType::kRead, row(0x40)},
                                      {10, AccessType::kWrite, row(0x80)},
                                      {5, AccessType::kRead, row(0xc0)}};
  std::vector<std::unique_ptr<TraceSource>> v;
  v.push_back(vec(records));
  MixTraceSource mix(std::move(v));
  for (const TraceRecord& e : records) {
    const auto got = mix.next();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->gap, e.gap);
    EXPECT_EQ(got->dec, e.dec);
    EXPECT_EQ(got->type, e.type);
  }
  EXPECT_FALSE(mix.next().has_value());
}

TEST(MixTrace, MergesByAbsoluteTime) {
  // Source A arrives at t = 0, 100, 200; source B at t = 50, 150.
  std::vector<std::unique_ptr<TraceSource>> v;
  v.push_back(vec({{0, AccessType::kRead, row(0xa0)},
                   {100, AccessType::kRead, row(0xa1)},
                   {100, AccessType::kRead, row(0xa2)}}));
  v.push_back(vec({{50, AccessType::kWrite, row(0xb0)},
                   {100, AccessType::kWrite, row(0xb1)}}));
  MixTraceSource mix(std::move(v));

  const unsigned expect_row[] = {0xa0, 0xb0, 0xa1, 0xb1, 0xa2};
  const Tick expect_gap[] = {0, 50, 50, 50, 50};
  for (int i = 0; i < 5; ++i) {
    const auto got = mix.next();
    ASSERT_TRUE(got.has_value()) << i;
    EXPECT_EQ(got->dec.row, expect_row[i]) << i;
    EXPECT_EQ(got->gap, expect_gap[i]) << i;
  }
  EXPECT_FALSE(mix.next().has_value());
  EXPECT_EQ(mix.contributed()[0], 3u);
  EXPECT_EQ(mix.contributed()[1], 2u);
}

TEST(MixTrace, TiesBreakByComponentOrder) {
  std::vector<std::unique_ptr<TraceSource>> v;
  v.push_back(vec({{10, AccessType::kRead, row(0xa0)}}));
  v.push_back(vec({{10, AccessType::kRead, row(0xb0)}}));
  MixTraceSource mix(std::move(v));
  EXPECT_EQ(mix.next()->dec.row, 0xa0u);
  EXPECT_EQ(mix.next()->dec.row, 0xb0u);
}

TEST(MixTrace, GapsReconstructAbsoluteTimeline) {
  // The sum of emitted gaps equals the latest component arrival.
  std::vector<std::unique_ptr<TraceSource>> v;
  v.push_back(
      vec({{7, AccessType::kRead, row(1)}, {20, AccessType::kRead, row(2)}}));
  v.push_back(
      vec({{13, AccessType::kRead, row(3)}, {40, AccessType::kRead, row(4)}}));
  MixTraceSource mix(std::move(v));
  Tick total = 0;
  while (const auto r = mix.next()) total += r->gap;
  EXPECT_EQ(total, 53u);  // source B: 13 + 40
}

TEST(MixTrace, MixesSyntheticBenchmarks) {
  const MemoryGeometry geom;
  std::vector<std::unique_ptr<TraceSource>> v;
  for (const char* name : {"401.bzip2", "ocean"}) {
    v.push_back(std::make_unique<SyntheticTraceSource>(*find_profile(name),
                                                       geom, 5, 2000));
  }
  MixTraceSource mix(std::move(v));
  std::uint64_t n = 0;
  Tick prev_abs = 0, abs = 0;
  while (const auto r = mix.next()) {
    abs += r->gap;
    EXPECT_GE(abs, prev_abs);  // non-decreasing arrivals
    prev_abs = abs;
    ++n;
  }
  EXPECT_EQ(n, 4000u);
  EXPECT_EQ(mix.contributed()[0], 2000u);
  EXPECT_EQ(mix.contributed()[1], 2000u);
}

}  // namespace
}  // namespace wompcm
