// Tests of the trace front end: the synthetic generator's stream, pinned
// per address mapping; raw file records; the range check on submitted
// coordinates; and read forwarding by decoded line.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>

#include "common/address.h"
#include "sim/run.h"
#include "sim/service.h"
#include "trace/binary_source.h"
#include "trace/profiles.h"
#include "trace/synthetic.h"

namespace wompcm {
namespace {

std::uint64_t fnv(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h = (h ^ ((v >> (8 * i)) & 0xff)) * 0x100000001b3ull;
  }
  return h;
}

// Hash of (gap, type, encoded address) over a synthetic stream. The
// registry corpus runs only the paper mapping; this pins the generator's
// placement under every mapping, on a 2-channel geometry so the channel
// field moves too.
std::uint64_t stream_hash(const char* bench, AddressMapping mapping) {
  MemoryGeometry geom;
  geom.channels = 2;
  geom.mapping = mapping;
  const AddressMapper mapper(geom);
  SyntheticTraceSource src(*find_profile(bench), geom, 7, 4000);
  std::uint64_t h = 0xcbf29ce484222325ull;
  while (const auto rec = src.next()) {
    h = fnv(h, rec->gap);
    h = fnv(h, static_cast<std::uint64_t>(rec->type));
    h = fnv(h, mapper.encode(rec->dec));
  }
  return h;
}

TEST(GeneratorGolden, StreamHashPerMapping) {
  EXPECT_EQ(stream_hash("401.bzip2", AddressMapping::kRowRankBankCol),
            4354061958289093300u);
  EXPECT_EQ(stream_hash("401.bzip2", AddressMapping::kRowBankRankCol),
            14450417419457201385u);
  EXPECT_EQ(stream_hash("401.bzip2", AddressMapping::kRankBankRowCol),
            6943394640491414243u);
  EXPECT_EQ(stream_hash("464.h264ref", AddressMapping::kRowRankBankCol),
            6718507950191487971u);
  EXPECT_EQ(stream_hash("464.h264ref", AddressMapping::kRowBankRankCol),
            17668235000683924631u);
  EXPECT_EQ(stream_hash("464.h264ref", AddressMapping::kRankBankRowCol),
            10809497445219041337u);
}

std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() /
          (std::string("womcode_pcm_front_end_") + name))
      .string();
}

// A 1-channel geometry of 256 rows of 8 lines: 128 KiB.
SimConfig small_config() {
  SimConfig cfg;
  cfg.geom.channels = 1;
  cfg.geom.ranks = 2;
  cfg.geom.banks_per_rank = 2;
  cfg.geom.rows_per_bank = 64;
  cfg.geom.cols_per_row = 64;
  cfg.warmup_accesses = 0;
  return cfg;
}

// Both formats store an address as it was written, beyond the geometry's
// capacity too, and the readers hand it back undecoded through next_raw().
// Decoded, it wraps onto the geometry.
TEST(FrontEnd, FileRecordsKeepAddressesBeyondCapacity) {
  const MemoryGeometry geom = small_config().geom;
  const FileRecord far{5, AccessType::kWrite, ~Addr{0} ^ 0x3f};
  for (const auto format :
       {TraceWriter::Format::kText, TraceWriter::Format::kBinary}) {
    const std::string path = temp_path("far.trc");
    {
      TraceWriter w(path, format, geom);
      w.write(far);
    }
    FileRecord raw;
    if (format == TraceWriter::Format::kBinary) {
      MmapTraceSource src(path, geom);
      ASSERT_TRUE(src.next_raw(&raw));
    } else {
      FileTraceSource src(path, geom);
      ASSERT_TRUE(src.next_raw(&raw));
    }
    EXPECT_EQ(raw.gap, far.gap);
    EXPECT_EQ(raw.type, far.type);
    EXPECT_EQ(raw.addr, far.addr);
    const auto rec = open_trace(path, geom)->next();
    ASSERT_TRUE(rec.has_value());
    EXPECT_EQ(rec->dec, AddressMapper(geom).decode(far.addr));
    std::filesystem::remove(path);
  }
}

// submit() takes records from outside the simulator: a coordinate outside
// the geometry is an error naming the field and value, and nothing of the
// call is accepted.
TEST(FrontEnd, SubmitRejectsCoordinatesOutsideTheGeometry) {
  const SimConfig cfg = small_config();
  const MemoryGeometry& g = cfg.geom;
  struct Case {
    unsigned DecodedAddr::*field;
    unsigned limit;
    const char* what;
  };
  for (const Case& c : {Case{&DecodedAddr::channel, g.channels, "channel 1"},
                        Case{&DecodedAddr::rank, g.ranks, "rank 2"},
                        Case{&DecodedAddr::bank, g.banks_per_rank, "bank 2"},
                        Case{&DecodedAddr::row, g.rows_per_bank, "row 64"},
                        Case{&DecodedAddr::col, g.lines_per_row(), "col 8"}}) {
    SimService svc(cfg);
    const SessionId id = svc.open_session();
    std::vector<TraceRecord> recs(2);
    recs[1].dec.*c.field = c.limit;
    try {
      svc.submit(id, recs);
      ADD_FAILURE() << "accepted " << c.what;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("record 1 has ") +
                                           c.what),
                std::string::npos)
          << e.what();
    }
    EXPECT_EQ(svc.poll(id).submitted, 0u);
    EXPECT_EQ(svc.poll(id).buffered, 0u);
    // The last coordinate of the field is fine.
    recs[1].dec.*c.field = c.limit - 1;
    EXPECT_EQ(svc.submit(id, recs).accepted, 2u);
  }
}

// Read forwarding matches on the decoded line. Two file addresses that
// wrap onto the same line are one line for the array, so they are one line
// for forwarding too: the read is served from the write queue.
TEST(FrontEnd, ForwardingMatchesWrappedAddressesOnOneLine) {
  const SimConfig cfg = small_config();
  const Addr wrap = cfg.geom.capacity_bytes();
  auto forwarded = [&](Addr read_addr) {
    const std::string path = temp_path("wrap.trc");
    {
      std::ofstream f(path);
      f << "0 W 0x40\n" << "0 R 0x" << std::hex << read_addr << "\n";
    }
    const SimResult r = run({cfg, TraceSpec::file(path)});
    std::filesystem::remove(path);
    return r.stats.counters.get("ctrl.reads_forwarded");
  };
  EXPECT_EQ(forwarded(0x40), 1u);
  EXPECT_EQ(forwarded(wrap + 0x40), 1u);
  EXPECT_EQ(forwarded(wrap + 0x80), 0u);  // the next line: not forwarded
}

}  // namespace
}  // namespace wompcm
