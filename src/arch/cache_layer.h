// The per-rank WOM-cache front end (Section 4): one bank-sized array per
// rank, indexed by row, tagged by bank address, write-allocate.
//
// Each cache row is one entry: a header word (occupant bank, valid bit,
// dead bit) followed by the row's line-valid bitmap (the cache row only
// holds the lines written since the install). A dense per-row index points
// at the entry, which a row claims on first use: its first install(), or a
// retire() of a row that died on its first write. The cache's
// CodingPolicy and the access protocol (victim spawning, bypass, fault
// pipeline, refresh scheduling) stay in the Architecture.
#pragma once

#include <cstdint>
#include <vector>

#include "common/address.h"

namespace wompcm {

class CacheLayer final {
 public:
  explicit CacheLayer(const MemoryGeometry& geom);

  unsigned arrays() const { return arrays_; }
  unsigned index(unsigned channel, unsigned rank) const {
    return channel * ranks_ + rank;
  }

  // Tag state of row `row` in array `cache_idx`.
  bool valid(unsigned cache_idx, unsigned row) const {
    return (header(cache_idx, row) & kValid) != 0;
  }
  unsigned installed_bank(unsigned cache_idx, unsigned row) const {
    return static_cast<unsigned>(header(cache_idx, row) & kBankMask);
  }

  bool line_set(unsigned cache_idx, unsigned row, unsigned line) const {
    const std::uint32_t id = row_slab_[row_index(cache_idx, row)];
    if (id == 0) return false;
    return (words_[line_word(id, line)] >> (line % 64)) & 1;
  }

  // A read hits only if this bank's row is installed AND the requested line
  // was written since the install; other lines of the row are still current
  // in main memory (whose copy of those lines is still current).
  bool probe_read_hit(const DecodedAddr& dec) const;

  // Eviction flushed the previous occupant's lines; the occupant itself is
  // rewritten by the install() that follows the fault pipeline.
  void evict_lines(unsigned cache_idx, unsigned row);

  // Commit a write of `line`: (re)install `bank` as the row's occupant and
  // mark the line valid.
  void install(unsigned cache_idx, unsigned row, unsigned bank, unsigned line);

  // Cache rows have no spare pool behind them: a dead row is retired and
  // bypassed (writes latch through to main memory) instead of remapped.
  bool row_dead(unsigned cache_idx, unsigned row) const {
    return (header(cache_idx, row) & kDead) != 0;
  }
  // Dead-row retirement: the row loses its occupant and its lines, and
  // stays dead.
  void retire(unsigned cache_idx, unsigned row);

 private:
  // Header word of a row entry: the occupant bank in the low 32 bits.
  static constexpr std::uint64_t kBankMask = 0xffffffffULL;
  static constexpr std::uint64_t kValid = std::uint64_t{1} << 32;
  static constexpr std::uint64_t kDead = std::uint64_t{1} << 33;

  // Position of a row in the dense per-row index.
  std::size_t row_index(unsigned cache_idx, unsigned row) const {
    return static_cast<std::size_t>(cache_idx) * rows_per_bank_ + row;
  }
  // First word (the header) of entry `id` (nonzero).
  std::size_t entry(std::uint32_t id) const {
    return (std::size_t{id} - 1) * (words_per_row_ + 1);
  }
  // Word of entry `id` holding `line`'s valid bit.
  std::size_t line_word(std::uint32_t id, unsigned line) const {
    return entry(id) + 1 + line / 64;
  }
  // The row's header; 0 (invalid, alive) before the row claims an entry.
  std::uint64_t header(unsigned cache_idx, unsigned row) const {
    const std::uint32_t id = row_slab_[row_index(cache_idx, row)];
    return id == 0 ? 0 : words_[entry(id)];
  }
  // The row's entry id, claiming a zeroed entry on first use.
  std::uint32_t claim(unsigned cache_idx, unsigned row);

  unsigned arrays_;
  unsigned ranks_;
  unsigned rows_per_bank_;
  unsigned words_per_row_;  // 64-bit words of one row's line bitmap
  // row_slab_ holds each row's 1-based entry id into words_ (0: no entry
  // yet), indexed by row_index. An entry is its header word followed by
  // words_per_row_ line words; cleared rows keep their entry.
  std::vector<std::uint32_t> row_slab_;
  std::vector<std::uint64_t> words_;
};

}  // namespace wompcm
