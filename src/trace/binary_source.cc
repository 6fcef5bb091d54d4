#include "trace/binary_source.h"

#include <cstdio>
#include <cstring>
#include <stdexcept>

#if defined(__unix__) || defined(__APPLE__)
#define WOMPCM_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace wompcm {

namespace {

constexpr std::size_t kRecordBytes = 17;  // u64 gap, u8 type, u64 addr

// Byte-wise little-endian load: alignment-safe (records are 17 bytes, so
// every field of every record past the first is misaligned) and free of
// strict-aliasing traps; compilers turn it into a single load + bswap-less
// move on little-endian targets.
inline std::uint64_t load_le64(const std::uint8_t* b) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | b[i];
  return v;
}

void unmap(void* addr, std::size_t len) {
#if WOMPCM_HAVE_MMAP
  if (addr != nullptr) ::munmap(addr, len);
#else
  (void)addr;
  (void)len;
#endif
}

}  // namespace

bool is_binary_trace(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    throw std::runtime_error("cannot open trace file: " + path);
  }
  char magic[sizeof(kTraceMagic)];
  const std::size_t got = std::fread(magic, 1, sizeof(magic), f);
  std::fclose(f);
  return got == sizeof(magic) &&
         std::memcmp(magic, kTraceMagic, sizeof(magic)) == 0;
}

MmapTraceSource::MmapTraceSource(const std::string& path,
                                 const MemoryGeometry& geom)
    : mapper_(geom) {
  std::size_t file_size = 0;
#if WOMPCM_HAVE_MMAP
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    throw std::runtime_error("cannot open trace file: " + path);
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    throw std::runtime_error("cannot stat trace file: " + path);
  }
  file_size = static_cast<std::size_t>(st.st_size);
  if (file_size > 0) {
    void* addr = ::mmap(nullptr, file_size, PROT_READ, MAP_PRIVATE, fd, 0);
    if (addr != MAP_FAILED) {
      // The trace is consumed front to back exactly once per run: tell the
      // kernel so readahead stays ahead of the fetch loop.
      ::posix_madvise(addr, file_size, POSIX_MADV_SEQUENTIAL);
      map_addr_ = addr;
      map_len_ = file_size;
      mapped_ = true;
    }
  }
  ::close(fd);
#endif
  if (!mapped_) {
    // Fallback (no mmap support, or an mmap-hostile file): one bulk read.
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) {
      throw std::runtime_error("cannot open trace file: " + path);
    }
    std::fseek(f, 0, SEEK_END);
    const long sz = std::ftell(f);
    std::fseek(f, 0, SEEK_SET);
    file_size = sz > 0 ? static_cast<std::size_t>(sz) : 0;
    fallback_.resize(file_size);
    if (file_size > 0 &&
        std::fread(fallback_.data(), 1, file_size, f) != file_size) {
      std::fclose(f);
      throw std::runtime_error("cannot read trace file: " + path);
    }
    std::fclose(f);
  }

  const std::uint8_t* data =
      mapped_ ? static_cast<const std::uint8_t*>(map_addr_) : fallback_.data();
  if (file_size < sizeof(kTraceMagic) ||
      std::memcmp(data, kTraceMagic, sizeof(kTraceMagic)) != 0) {
    if (mapped_) unmap(map_addr_, map_len_);
    throw std::runtime_error("not a binary trace (bad magic): " + path);
  }
  const std::size_t payload = file_size - sizeof(kTraceMagic);
  if (payload % kRecordBytes != 0) {
    if (mapped_) unmap(map_addr_, map_len_);
    throw std::runtime_error("truncated binary trace record in: " + path);
  }
  base_ = data + sizeof(kTraceMagic);
  records_ = payload / kRecordBytes;
}

MmapTraceSource::~MmapTraceSource() {
  if (mapped_) unmap(map_addr_, map_len_);
}

bool MmapTraceSource::next_raw(FileRecord* out) {
  if (pos_ >= records_) return false;
  const std::uint8_t* b = base_ + pos_ * kRecordBytes;
  ++pos_;
  out->gap = load_le64(b);
  out->type = b[8] != 0 ? AccessType::kWrite : AccessType::kRead;
  out->addr = load_le64(b + 9);
  return true;
}

std::size_t MmapTraceSource::next_block(TraceRecord* out, std::size_t max) {
  std::size_t n = 0;
  FileRecord raw;
  for (; n < max && next_raw(&raw); ++n) {
    out[n] = {raw.gap, raw.type, mapper_.decode(raw.addr)};
  }
  return n;
}

std::unique_ptr<TraceSource> open_trace(const std::string& path,
                                        const MemoryGeometry& geom) {
  if (is_binary_trace(path)) {
    return std::make_unique<MmapTraceSource>(path, geom);
  }
  return std::make_unique<FileTraceSource>(path, geom);
}

}  // namespace wompcm
