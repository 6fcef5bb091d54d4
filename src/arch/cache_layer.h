// The per-rank WOM-cache front end (Section 4): tag state of one bank-sized
// array per rank, N_bank-way associative by bank address, with per-line
// valid bits and a dead-row set for rows retired by the fault model.
//
// Tag/valid/victim bookkeeping lives in a TagArray per (channel, rank) —
// 1-way sets indexed by row, tagged by bank, with bank_tag replacement
// (ReplacementState) — so the WOM cache is one point in the same tag-array
// design space as the DRAM front tier. The layer additionally owns the
// per-line valid bitmaps (the cache row only holds the lines written since
// the install). The cache's CodingPolicy and the access protocol (victim
// spawning, bypass, fault pipeline, refresh scheduling) stay in the
// Architecture.
#pragma once

#include <cstdint>
#include <vector>

#include "arch/tag_array.h"
#include "common/address.h"
#include "common/flat_map.h"

namespace wompcm {

class CacheLayer final {
 public:
  explicit CacheLayer(const MemoryGeometry& geom);

  unsigned arrays() const { return static_cast<unsigned>(tags_.size()); }
  unsigned index(unsigned channel, unsigned rank) const {
    return channel * ranks_ + rank;
  }

  // Tag state of the single way of row-set `row` in array `cache_idx`.
  bool valid(unsigned cache_idx, unsigned row) const {
    return tags_[cache_idx].valid(row, 0);
  }
  unsigned installed_bank(unsigned cache_idx, unsigned row) const {
    return static_cast<unsigned>(tags_[cache_idx].tag(row, 0));
  }

  bool line_set(unsigned cache_idx, unsigned row, unsigned line) const {
    const std::uint32_t id = line_slab_[row_key(cache_idx, row)];
    if (id == 0) return false;
    return (line_words_[word_index(id, line)] >> (line % 64)) & 1;
  }

  // A read hits only if this bank's row is installed AND the requested line
  // was written since the install; other lines of the row are still current
  // in main memory (whose copy of those lines is still current).
  bool probe_read_hit(const DecodedAddr& dec) const;

  // Eviction flushed the previous occupant's lines; the tag itself is
  // rewritten by the install() that follows the fault pipeline.
  void evict_lines(unsigned cache_idx, unsigned row) {
    clear_lines(cache_idx, row);
  }

  // Dead-row retirement: drop the occupant outright.
  void invalidate(unsigned cache_idx, unsigned row) {
    tags_[cache_idx].invalidate(row, 0);
    clear_lines(cache_idx, row);
  }

  // Commit a write of `line`: (re)install `bank` as the row's occupant and
  // mark the line valid.
  void install(unsigned cache_idx, unsigned row, unsigned bank, unsigned line);

  // Tracker key of a cache row — local to the cache arrays (the wear/fault
  // key space is the owning architecture's row_key_for, disjoint from this).
  std::uint64_t row_key(unsigned cache_idx, unsigned row) const {
    return static_cast<std::uint64_t>(cache_idx) * rows_per_bank_ + row;
  }

  // Cache rows have no spare pool behind them: a dead row is invalidated
  // and bypassed (writes latch through to main memory) instead of remapped.
  bool row_dead(unsigned cache_idx, unsigned row) const {
    return dead_rows_.find(row_key(cache_idx, row)) != nullptr;
  }
  void mark_dead(unsigned cache_idx, unsigned row) {
    dead_rows_[row_key(cache_idx, row)] = 1;
  }

  // Monotone stamp advanced on every tag mutation that could flip a queued
  // demand read's probe outcome (install, re-bank, new valid line,
  // invalidation) — see Architecture::route_version.
  std::uint64_t route_version() const { return route_version_; }
  void note_route_change() { ++route_version_; }

 private:
  // Word of slab `id` (nonzero) holding `line`'s valid bit.
  std::size_t word_index(std::uint32_t id, unsigned line) const {
    return (std::size_t{id} - 1) * words_per_row_ + line / 64;
  }
  void clear_lines(unsigned cache_idx, unsigned row);

  unsigned ranks_;
  unsigned rows_per_bank_;
  unsigned words_per_row_;  // 64-bit words of one row's line bitmap
  // One 1-way bank_tag TagArray per (channel, rank) cache array.
  std::vector<TagArray> tags_;
  // Per-line valid bitmaps, keyed like row_key: line_slab_ holds a row's
  // 1-based slab id into line_words_ (0: no line written yet), and a row
  // claims its words_per_row_ words on its first install(). Cleared rows
  // keep their slab and are zeroed instead.
  std::vector<std::uint32_t> line_slab_;
  std::vector<std::uint64_t> line_words_;
  std::uint64_t route_version_ = 0;
  // Keyed like row_key; only ever populated while faults are enabled.
  FlatMap64<std::uint8_t> dead_rows_;
};

}  // namespace wompcm
