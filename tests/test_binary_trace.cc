// Tests of the zero-copy binary trace reader and the format dispatcher.
//
// MmapTraceSource must decode exactly what TraceWriter wrote (and exactly
// what the buffered FileTraceSource reader decodes), know the record count
// up front, reject malformed files, and — through open_trace() /
// TraceSpec::file() — produce bit-identical simulation results to the
// text rendering of the same trace.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <vector>

#include "sim/experiment.h"
#include "sim/run.h"
#include "trace/binary_source.h"
#include "trace/file_source.h"
#include "trace/synthetic.h"

namespace wompcm {
namespace {

std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() /
          (std::string("womcode_pcm_binsrc_") + name))
      .string();
}

std::vector<TraceRecord> sample_records() {
  return {
      {0, AccessType::kRead, 0x1000},
      {120, AccessType::kWrite, 0xdeadbeefc0ull},
      {7, AccessType::kRead, 0},
      {100000, AccessType::kWrite, ~Addr{0} ^ 0x3f},
  };
}

void write_binary(const std::string& path,
                  const std::vector<TraceRecord>& records) {
  TraceWriter w(path, TraceWriter::Format::kBinary);
  for (const auto& r : records) w.write(r);
}

TEST(MmapTrace, RoundTripAndCount) {
  const std::string path = temp_path("roundtrip.trc");
  const auto records = sample_records();
  write_binary(path, records);

  MmapTraceSource src(path);
  EXPECT_EQ(src.records(), records.size());
  for (const TraceRecord& e : records) {
    const auto got = src.next();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->gap, e.gap);
    EXPECT_EQ(got->type, e.type);
    EXPECT_EQ(got->addr, e.addr);
  }
  EXPECT_FALSE(src.next().has_value());

  // rewind() restarts the stream for multi-pass drivers.
  src.rewind();
  const auto again = src.next();
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->addr, records[0].addr);
  std::filesystem::remove(path);
}

TEST(MmapTrace, AgreesWithBufferedReader) {
  const std::string path = temp_path("agree.trc");
  write_binary(path, sample_records());
  MmapTraceSource fast(path);
  FileTraceSource slow(path);
  for (;;) {
    const auto a = fast.next();
    const auto b = slow.next();
    ASSERT_EQ(a.has_value(), b.has_value());
    if (!a.has_value()) break;
    EXPECT_EQ(a->gap, b->gap);
    EXPECT_EQ(a->type, b->type);
    EXPECT_EQ(a->addr, b->addr);
  }
  std::filesystem::remove(path);
}

TEST(MmapTrace, RejectsTextFile) {
  const std::string path = temp_path("text.trc");
  {
    TraceWriter w(path, TraceWriter::Format::kText);
    for (const auto& r : sample_records()) w.write(r);
  }
  EXPECT_FALSE(is_binary_trace(path));
  EXPECT_THROW(MmapTraceSource{path}, std::runtime_error);
  std::filesystem::remove(path);
}

TEST(MmapTrace, RejectsTruncatedTail) {
  const std::string path = temp_path("trunc.trc");
  {
    std::ofstream f(path, std::ios::binary);
    f.write(kTraceMagic, 8);
    const char partial[5] = {1, 2, 3, 4, 5};
    f.write(partial, sizeof(partial));
  }
  EXPECT_TRUE(is_binary_trace(path));
  EXPECT_THROW(MmapTraceSource{path}, std::runtime_error);
  std::filesystem::remove(path);
}

TEST(MmapTrace, MissingFileThrows) {
  EXPECT_THROW(MmapTraceSource{"/no/such/file.trc"}, std::runtime_error);
  EXPECT_THROW(is_binary_trace("/no/such/file.trc"), std::runtime_error);
}

TEST(MmapTrace, EmptyPayloadYieldsNothing) {
  const std::string path = temp_path("empty.trc");
  write_binary(path, {});
  MmapTraceSource src(path);
  EXPECT_EQ(src.records(), 0u);
  EXPECT_FALSE(src.next().has_value());
  std::filesystem::remove(path);
}

TEST(OpenTrace, DispatchesByFormat) {
  const std::string bin_path = temp_path("dispatch_bin.trc");
  const std::string txt_path = temp_path("dispatch_txt.trc");
  write_binary(bin_path, sample_records());
  {
    TraceWriter w(txt_path, TraceWriter::Format::kText);
    for (const auto& r : sample_records()) w.write(r);
  }
  const auto bin = open_trace(bin_path);
  const auto txt = open_trace(txt_path);
  EXPECT_NE(dynamic_cast<MmapTraceSource*>(bin.get()), nullptr);
  EXPECT_NE(dynamic_cast<FileTraceSource*>(txt.get()), nullptr);
  // Both decode the same stream.
  for (;;) {
    const auto a = bin->next();
    const auto b = txt->next();
    ASSERT_EQ(a.has_value(), b.has_value());
    if (!a.has_value()) break;
    EXPECT_EQ(a->gap, b->gap);
    EXPECT_EQ(a->type, b->type);
    EXPECT_EQ(a->addr, b->addr);
  }
  std::filesystem::remove(bin_path);
  std::filesystem::remove(txt_path);
}

TEST(OpenTrace, TextAndBinaryRunsAreIdentical) {
  // Record a synthetic benchmark in both formats, then run each through
  // TraceSpec::file(): the rendering of the trace must not change a single
  // statistic.
  const std::string bin_path = temp_path("run_bin.trc");
  const std::string txt_path = temp_path("run_txt.trc");
  {
    SyntheticTraceSource gen(*find_profile("401.bzip2"), paper_config().geom,
                             42, 4000);
    TraceWriter bin(bin_path, TraceWriter::Format::kBinary);
    TraceWriter txt(txt_path, TraceWriter::Format::kText);
    while (const auto rec = gen.next()) {
      bin.write(*rec);
      txt.write(*rec);
    }
  }
  SimConfig cfg = paper_config();
  cfg.arch.composition = arch_preset("refresh");
  cfg.warmup_accesses = 500;
  RunRequest req;
  req.config = cfg;
  req.trace = TraceSpec::file(bin_path);
  const SimResult a = run(req);
  req.trace = TraceSpec::file(txt_path);
  const SimResult b = run(req);
  EXPECT_EQ(a.end_time, b.end_time);
  EXPECT_EQ(a.injected_reads, b.injected_reads);
  EXPECT_EQ(a.injected_writes, b.injected_writes);
  EXPECT_EQ(a.stats.counters.all(), b.stats.counters.all());
  EXPECT_EQ(a.stats.demand_read_latency.sum(),
            b.stats.demand_read_latency.sum());
  EXPECT_EQ(a.stats.demand_write_latency.sum(),
            b.stats.demand_write_latency.sum());
  std::filesystem::remove(bin_path);
  std::filesystem::remove(txt_path);
}

}  // namespace
}  // namespace wompcm
