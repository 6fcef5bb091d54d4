#include "trace/file_source.h"

#include <cctype>
#include <cinttypes>
#include <cstring>
#include <stdexcept>

namespace wompcm {

namespace {

// Manual field parsers over [p, end): leading whitespace before every
// field and an optional 0x/0X prefix on the hex address. A value that does
// not fit in 64 bits fails the parse instead of wrapping.
bool skip_space(const char*& p, const char* end) {
  while (p != end && std::isspace(static_cast<unsigned char>(*p))) ++p;
  return p != end;
}

bool parse_dec_u64(const char*& p, const char* end, std::uint64_t* out) {
  if (!skip_space(p, end)) return false;
  if (!std::isdigit(static_cast<unsigned char>(*p))) return false;
  std::uint64_t v = 0;
  while (p != end && std::isdigit(static_cast<unsigned char>(*p))) {
    const auto d = static_cast<std::uint64_t>(*p - '0');
    if (v > (~std::uint64_t{0} - d) / 10) return false;
    v = v * 10 + d;
    ++p;
  }
  *out = v;
  return true;
}

int hex_digit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

bool parse_hex_u64(const char*& p, const char* end, std::uint64_t* out) {
  if (!skip_space(p, end)) return false;
  if (end - p >= 3 && p[0] == '0' && (p[1] == 'x' || p[1] == 'X') &&
      hex_digit(p[2]) >= 0) {
    p += 2;
  }
  int d = hex_digit(*p);
  if (d < 0) return false;
  std::uint64_t v = 0;
  do {
    if (v >> 60 != 0) return false;
    v = (v << 4) | static_cast<std::uint64_t>(d);
    ++p;
  } while (p != end && (d = hex_digit(*p)) >= 0);
  *out = v;
  return true;
}

}  // namespace

FileTraceSource::FileTraceSource(const std::string& path,
                                 const MemoryGeometry& geom)
    : mapper_(geom) {
  f_ = std::fopen(path.c_str(), "rb");
  if (f_ == nullptr) {
    throw std::runtime_error("cannot open trace file: " + path);
  }
  buf_.resize(kBufSize);
}

FileTraceSource::~FileTraceSource() {
  if (f_ != nullptr) std::fclose(f_);
}

bool FileTraceSource::refill() {
  if (eof_) return false;
  if (pos_ > 0) {
    std::memmove(buf_.data(), buf_.data() + pos_, end_ - pos_);
    end_ -= pos_;
    pos_ = 0;
  }
  if (end_ == buf_.size()) buf_.resize(buf_.size() * 2);
  const std::size_t got =
      std::fread(buf_.data() + end_, 1, buf_.size() - end_, f_);
  eof_ = got == 0;
  end_ += got;
  return got > 0;
}

std::size_t FileTraceSource::next_block(TraceRecord* out, std::size_t max) {
  std::size_t n = 0;
  FileRecord raw;
  for (; n < max && next_raw(&raw); ++n) {
    out[n] = {raw.gap, raw.type, mapper_.decode(raw.addr)};
  }
  return n;
}

bool FileTraceSource::next_raw(FileRecord* out) {
  for (;;) {
    const char* nl = static_cast<const char*>(
        std::memchr(buf_.data() + pos_, '\n', end_ - pos_));
    if (nl == nullptr && !eof_) {
      refill();
      continue;
    }
    if (pos_ == end_) return false;
    const char* p = buf_.data() + pos_;
    const char* line_end = nl != nullptr ? nl : buf_.data() + end_;
    pos_ = nl != nullptr ? static_cast<std::size_t>(nl - buf_.data()) + 1
                         : end_;
    ++line_;

    if (!skip_space(p, line_end) || *p == '#') continue;
    std::uint64_t gap = 0;
    std::uint64_t addr = 0;
    char type = 0;
    bool ok = parse_dec_u64(p, line_end, &gap);
    if (ok && skip_space(p, line_end)) {
      type = *p++;
    } else {
      ok = false;
    }
    ok = ok && parse_hex_u64(p, line_end, &addr);
    // Only a comment may follow the address.
    ok = ok && (!skip_space(p, line_end) || *p == '#');
    if (!ok || (type != 'R' && type != 'W' && type != 'r' && type != 'w')) {
      throw std::runtime_error("malformed trace line " + std::to_string(line_));
    }
    out->gap = gap;
    out->type = (type == 'W' || type == 'w') ? AccessType::kWrite
                                             : AccessType::kRead;
    out->addr = addr;
    return true;
  }
}

TraceWriter::TraceWriter(const std::string& path, Format format,
                         const MemoryGeometry& geom)
    : mapper_(geom), format_(format) {
  f_ = std::fopen(path.c_str(), format == Format::kBinary ? "wb" : "w");
  if (f_ == nullptr) {
    throw std::runtime_error("cannot create trace file: " + path);
  }
  if (format_ == Format::kBinary) {
    if (std::fwrite(kTraceMagic, 1, 8, f_) != 8) {
      throw std::runtime_error("cannot write trace header");
    }
  } else {
    std::fputs("# gap-ns R|W addr-hex\n", f_);
  }
}

TraceWriter::~TraceWriter() { close(); }

void TraceWriter::close() {
  if (f_ != nullptr) {
    std::fclose(f_);
    f_ = nullptr;
  }
}

void TraceWriter::write(const TraceRecord& rec) {
  write(FileRecord{rec.gap, rec.type, mapper_.encode(rec.dec)});
}

void TraceWriter::write(const FileRecord& rec) {
  if (f_ == nullptr) throw std::logic_error("TraceWriter: already closed");
  if (format_ == Format::kBinary) {
    std::uint8_t buf[17];
    auto put = [&](std::size_t off, std::uint64_t v) {
      for (std::size_t i = 0; i < 8; ++i) buf[off + i] = (v >> (8 * i)) & 0xff;
    };
    put(0, rec.gap);
    buf[8] = rec.type == AccessType::kWrite ? 1 : 0;
    put(9, rec.addr);
    if (std::fwrite(buf, 1, sizeof(buf), f_) != sizeof(buf)) {
      throw std::runtime_error("trace write failed");
    }
  } else {
    std::fprintf(f_, "%" PRIu64 " %c 0x%" PRIx64 "\n", rec.gap,
                 rec.type == AccessType::kWrite ? 'W' : 'R', rec.addr);
  }
}

}  // namespace wompcm
