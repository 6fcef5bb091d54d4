#include "arch/cache_layer.h"

#include <algorithm>

namespace wompcm {

CacheLayer::CacheLayer(const MemoryGeometry& geom)
    : arrays_(geom.channels * geom.ranks),
      ranks_(geom.ranks),
      rows_per_bank_(geom.rows_per_bank),
      words_per_row_((geom.lines_per_row() + 63) / 64) {
  row_slab_.assign(static_cast<std::size_t>(arrays_) * rows_per_bank_, 0);
}

bool CacheLayer::probe_read_hit(const DecodedAddr& dec) const {
  const std::uint32_t id =
      row_slab_[row_index(index(dec.channel, dec.rank), dec.row)];
  if (id == 0) return false;
  const std::uint64_t h = words_[entry(id)];
  return (h & kValid) != 0 && (h & kBankMask) == dec.bank &&
         ((words_[line_word(id, dec.col)] >> (dec.col % 64)) & 1) != 0;
}

void CacheLayer::evict_lines(unsigned cache_idx, unsigned row) {
  const std::uint32_t id = row_slab_[row_index(cache_idx, row)];
  if (id == 0) return;
  const auto first =
      words_.begin() + static_cast<std::ptrdiff_t>(line_word(id, 0));
  std::fill(first, first + words_per_row_, 0);
}

void CacheLayer::retire(unsigned cache_idx, unsigned row) {
  words_[entry(claim(cache_idx, row))] = kDead;
  evict_lines(cache_idx, row);
}

void CacheLayer::install(unsigned cache_idx, unsigned row, unsigned bank,
                         unsigned line) {
  const std::uint32_t id = claim(cache_idx, row);
  std::uint64_t& h = words_[entry(id)];
  h = (h & kDead) | kValid | bank;
  words_[line_word(id, line)] |= std::uint64_t{1} << (line % 64);
}

std::uint32_t CacheLayer::claim(unsigned cache_idx, unsigned row) {
  std::uint32_t& id = row_slab_[row_index(cache_idx, row)];
  if (id == 0) {
    words_.resize(words_.size() + words_per_row_ + 1, 0);
    id = static_cast<std::uint32_t>(words_.size() / (words_per_row_ + 1));
  }
  return id;
}

}  // namespace wompcm
