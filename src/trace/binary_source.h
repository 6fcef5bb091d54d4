// Zero-copy ingestion of binary trace files.
//
// MmapTraceSource maps a binary-format trace (8-byte "WOMPCMT1" magic +
// packed little-endian { u64 gap, u8 type, u64 addr } records, the format
// TraceWriter writes) straight into the address space and decodes records
// in place: no read syscalls, no buffer copies, no refill bookkeeping on
// the fetch path. On multi-gigabyte recorded traces this removes the
// dominant trace_gen cost and lets the page cache serve repeated runs of
// the same trace. It is the only binary reader.
//
// On non-POSIX hosts (no <sys/mman.h>) the constructor falls back to
// reading the whole file into memory once; the decode path is identical.
//
// open_trace() is the format-dispatching entry point: binary files get
// the mmap reader, text files the buffered parser (file_source.h).
// TraceSpec::file() goes through it, so recorded-trace runs pick the fast
// path automatically.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "trace/file_source.h"

namespace wompcm {

// True when `path` starts with the binary trace magic. Throws
// std::runtime_error if the file cannot be opened.
bool is_binary_trace(const std::string& path);

class MmapTraceSource final : public TraceSource {
 public:
  // Maps (or, on the fallback path, loads) the file; records decode under
  // `geom`. Throws std::runtime_error when the file cannot be opened, is
  // not a binary trace, or ends mid-record.
  MmapTraceSource(const std::string& path, const MemoryGeometry& geom);
  ~MmapTraceSource() override;

  MmapTraceSource(const MmapTraceSource&) = delete;
  MmapTraceSource& operator=(const MmapTraceSource&) = delete;

  std::size_t next_block(TraceRecord* out, std::size_t max) override;
  // The next record as the file holds it; false at end of file.
  bool next_raw(FileRecord* out);

  // Total records in the file (known up front, unlike the stream reader).
  std::uint64_t records() const { return records_; }

  // Restarts the trace from the first record (multi-pass drivers).
  void rewind() { pos_ = 0; }

 private:
  AddressMapper mapper_;
  const std::uint8_t* base_ = nullptr;  // first record (past the magic)
  std::uint64_t records_ = 0;
  std::uint64_t pos_ = 0;  // next record index
  bool mapped_ = false;
  void* map_addr_ = nullptr;  // mmap base (page-aligned), when mapped_
  std::size_t map_len_ = 0;
  std::vector<std::uint8_t> fallback_;  // file contents, when !mapped_
};

// Opens a trace file with the right reader for its format: MmapTraceSource
// for binary traces, FileTraceSource for text; records decode under
// `geom`. Throws std::runtime_error on an unreadable file.
std::unique_ptr<TraceSource> open_trace(const std::string& path,
                                        const MemoryGeometry& geom);

}  // namespace wompcm
