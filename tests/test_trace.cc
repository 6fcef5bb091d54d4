// Tests of the trace record plumbing and the text file format (the binary
// format's reader is tested in test_binary_trace.cc).
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "trace/file_source.h"

namespace wompcm {
namespace {

std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() /
          (std::string("womcode_pcm_test_") + name))
      .string();
}

const MemoryGeometry kGeom;  // the paper geometry

std::vector<TraceRecord> sample_records() {
  return {
      {0, AccessType::kRead, {0, 0, 0, 0, 64}},
      {120, AccessType::kWrite, {0, 3, 17, 1234, 9}},
      {7, AccessType::kRead, {}},
      // The last coordinate of every field.
      {100000, AccessType::kWrite, {0, 15, 31, 32767, 255}},
  };
}

void expect_same(const std::vector<TraceRecord>& expect,
                 TraceSource& source) {
  for (const TraceRecord& e : expect) {
    const auto got = source.next();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->gap, e.gap);
    EXPECT_EQ(got->type, e.type);
    EXPECT_EQ(got->dec, e.dec);
  }
  EXPECT_FALSE(source.next().has_value());
}

TEST(VectorTraceSource, ReplaysInOrder) {
  auto records = sample_records();
  VectorTraceSource src(records);
  expect_same(records, src);
}

TEST(FileTrace, TextRoundTrip) {
  const std::string path = temp_path("text.trc");
  {
    TraceWriter w(path, TraceWriter::Format::kText, kGeom);
    for (const auto& r : sample_records()) w.write(r);
  }
  FileTraceSource src(path, kGeom);
  auto records = sample_records();
  expect_same(records, src);
  std::filesystem::remove(path);
}

TEST(FileTrace, TextCommentsAndBlanksSkipped) {
  const std::string path = temp_path("comments.trc");
  {
    std::ofstream f(path);
    f << "# header comment\n\n"
      << "  10 R 0x40\n"
      << "# another\n"
      << "20 w 80\n"  // lowercase + no 0x prefix are accepted
      << "30 R 0xc0  # a trailing comment\n";
  }
  const AddressMapper mapper(kGeom);
  FileTraceSource src(path, kGeom);
  auto r1 = src.next();
  ASSERT_TRUE(r1.has_value());
  EXPECT_EQ(r1->gap, 10u);
  EXPECT_EQ(r1->type, AccessType::kRead);
  EXPECT_EQ(r1->dec, mapper.decode(0x40));
  auto r2 = src.next();
  ASSERT_TRUE(r2.has_value());
  EXPECT_EQ(r2->type, AccessType::kWrite);
  EXPECT_EQ(r2->dec, mapper.decode(0x80));
  auto r3 = src.next();
  ASSERT_TRUE(r3.has_value());
  EXPECT_EQ(r3->dec, mapper.decode(0xc0));
  EXPECT_FALSE(src.next().has_value());
  std::filesystem::remove(path);
}

TEST(FileTrace, MalformedLineThrows) {
  const std::string path = temp_path("bad.trc");
  for (const char* line : {
           "10 X 0x40",
           "99999999999999999999 W 0x40",  // the gap does not fit 64 bits
           "5 R 0x11112222333344445555",   // nor does the address
           "7 W 0x80zz junk",              // trailing characters
       }) {
    {
      std::ofstream f(path);
      f << "# header\n" << line << "\n";
    }
    FileTraceSource src(path, kGeom);
    try {
      src.next();
      ADD_FAILURE() << "accepted: " << line;
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "malformed trace line 2") << line;
    }
  }
  std::filesystem::remove(path);
}

TEST(FileTrace, MissingFileThrows) {
  EXPECT_THROW(FileTraceSource("/no/such/file.trc", kGeom),
               std::runtime_error);
}

TEST(FileTrace, EmptyTextFileYieldsNothing) {
  const std::string path = temp_path("empty.trc");
  std::ofstream(path).close();
  FileTraceSource src(path, kGeom);
  EXPECT_FALSE(src.next().has_value());
  std::filesystem::remove(path);
}

TEST(TraceWriter, WriteAfterCloseThrows) {
  const std::string path = temp_path("closed.trc");
  TraceWriter w(path, TraceWriter::Format::kText, kGeom);
  w.close();
  EXPECT_THROW(w.write(TraceRecord{}), std::logic_error);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace wompcm
