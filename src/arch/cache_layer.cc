#include "arch/cache_layer.h"

#include <algorithm>

namespace wompcm {

CacheLayer::CacheLayer(const MemoryGeometry& geom)
    : ranks_(geom.ranks),
      rows_per_bank_(geom.rows_per_bank),
      words_per_row_((geom.lines_per_row() + 63) / 64) {
  const unsigned arrays = geom.channels * geom.ranks;
  tags_.reserve(arrays);
  for (unsigned i = 0; i < arrays; ++i) {
    tags_.emplace_back(geom.rows_per_bank, /*ways=*/1,
                       ReplacementKind::kBankTag);
  }
  line_slab_.assign(static_cast<std::size_t>(arrays) * rows_per_bank_, 0);
}

bool CacheLayer::probe_read_hit(const DecodedAddr& dec) const {
  const unsigned ci = index(dec.channel, dec.rank);
  return tags_[ci].valid(dec.row, 0) &&
         tags_[ci].tag(dec.row, 0) == dec.bank &&
         line_set(ci, dec.row, dec.col);
}

void CacheLayer::install(unsigned cache_idx, unsigned row, unsigned bank,
                         unsigned line) {
  TagArray& t = tags_[cache_idx];
  if (t.valid(row, 0) && t.tag(row, 0) == bank) {
    t.touch(row, 0);
  } else {
    t.install(row, 0, bank);
  }
  std::uint32_t& id = line_slab_[row_key(cache_idx, row)];
  if (id == 0) {
    line_words_.resize(line_words_.size() + words_per_row_, 0);
    id = static_cast<std::uint32_t>(line_words_.size() / words_per_row_);
  }
  line_words_[word_index(id, line)] |= std::uint64_t{1} << (line % 64);
}

void CacheLayer::clear_lines(unsigned cache_idx, unsigned row) {
  const std::uint32_t id = line_slab_[row_key(cache_idx, row)];
  if (id == 0) return;
  const auto first = line_words_.begin() +
                     static_cast<std::ptrdiff_t>(word_index(id, 0));
  std::fill(first, first + words_per_row_, 0);
}

}  // namespace wompcm
