// File-based traces, so real Pin/valgrind-captured traces can be dropped in.
//
// Text format (one record per line, '#' comments allowed):
//     <gap-ns> <R|W> <address-hex>
// e.g. "120 W 0x7fff9a40".
//
// Binary format: 8-byte magic "WOMPCMT1" followed by packed records of
// { u64 gap, u8 type (0=read, 1=write), u64 addr } in little-endian order.
//
// Files hold physical addresses; readers decode each one under the run's
// geometry as they read it, and TraceWriter encodes. This header has the
// text reader and the writer; binary_source.h has the binary reader and
// open_trace(), which picks the reader by the file's magic.
#pragma once

#include <cstddef>
#include <cstdio>
#include <string>
#include <vector>

#include "trace/trace.h"

namespace wompcm {

inline constexpr char kTraceMagic[8] = {'W', 'O', 'M', 'P', 'C', 'M', 'T', '1'};

// A record as a trace file stores it, address not yet decoded. Converting
// between formats copies these, so an address beyond the geometry's
// capacity survives a round trip.
struct FileRecord {
  Tick gap = 0;
  AccessType type = AccessType::kRead;
  Addr addr = 0;
};

// Reader of the text format.
class FileTraceSource final : public TraceSource {
 public:
  // Throws std::runtime_error if the file cannot be opened.
  FileTraceSource(const std::string& path, const MemoryGeometry& geom);
  ~FileTraceSource() override;

  FileTraceSource(const FileTraceSource&) = delete;
  FileTraceSource& operator=(const FileTraceSource&) = delete;

  // Both throw std::runtime_error("malformed trace line N") on a line that
  // is not a record, a comment or blank.
  std::size_t next_block(TraceRecord* out, std::size_t max) override;
  // The next record as the file holds it; false at end of file.
  bool next_raw(FileRecord* out);

 private:
  // Pulls the next chunk from the file into buf_, compacting the unread
  // tail first. Returns false at end of file.
  bool refill();

  AddressMapper mapper_;
  std::FILE* f_ = nullptr;
  std::size_t line_ = 0;

  // Records are parsed out of a chunked read buffer instead of per-record
  // stream extraction: one fread per kBufSize bytes, then memchr/pointer
  // scans in memory (trace parsing is on the hot path — it shows up as
  // trace_gen_ns in SimResult::phases). buf_ grows only in the pathological
  // case of a single line longer than the buffer.
  static constexpr std::size_t kBufSize = 256 * 1024;
  std::vector<char> buf_;
  std::size_t pos_ = 0;  // next unread byte in buf_
  std::size_t end_ = 0;  // one past the last valid byte in buf_
  bool eof_ = false;
};

// Trace writer (both formats), used by tests and by trace_tool.
class TraceWriter {
 public:
  enum class Format { kText, kBinary };

  // Records are encoded under `geom`.
  TraceWriter(const std::string& path, Format format,
              const MemoryGeometry& geom);
  ~TraceWriter();

  TraceWriter(const TraceWriter&) = delete;
  TraceWriter& operator=(const TraceWriter&) = delete;

  void write(const TraceRecord& rec);
  void write(const FileRecord& rec);
  void close();

 private:
  AddressMapper mapper_;
  std::FILE* f_ = nullptr;
  Format format_;
};

}  // namespace wompcm
