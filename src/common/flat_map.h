// Insert-only open-addressing hash map with 64-bit keys.
//
// The row table (arch/row_table.h) keys sparse per-row state by flat row
// ids on the per-write hot path, and the spare-row remap table
// (controller/remap_table.h) keys retired rows; neither erases or
// iterates. For that access pattern a linear-probe table with a strong
// mixing hash beats std::unordered_map by several times per lookup: one
// cache line per probe, no chained nodes, no allocator traffic after
// reserve(). The trade-offs this makes — no erase(), no iteration,
// pointer/reference invalidation on growth — match those users exactly.
//
// Replacing std::unordered_map with this table cannot change any reported
// statistic: values, update order, and size() are identical; only the
// lookup mechanics differ.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace wompcm {

template <typename V>
class FlatMap64 {
 public:
  FlatMap64() { rehash(kMinCapacity); }

  // Pre-sizes the table for `n` entries without exceeding the load limit.
  void reserve(std::size_t n) {
    std::size_t cap = kMinCapacity;
    while (cap / 2 < n) cap *= 2;
    if (cap > cells_.size()) rehash(cap);
  }

  // Value for `key`, default-constructed and inserted if absent.
  // References stay valid until the next insertion that grows the table.
  V& operator[](std::uint64_t key) {
    Cell* c = probe(key);
    if (c->used) return c->value;
    if (used_ + 1 > cells_.size() / 2) {  // max load factor 1/2
      rehash(cells_.size() * 2);
      c = probe(key);
    }
    c->used = true;
    c->key = key;
    ++used_;
    return c->value;
  }

  const V* find(std::uint64_t key) const {
    const Cell* c = probe(key);
    return c->used ? &c->value : nullptr;
  }
  V* find(std::uint64_t key) {
    Cell* c = probe(key);
    return c->used ? &c->value : nullptr;
  }

  std::size_t size() const { return used_; }
  bool empty() const { return used_ == 0; }

 private:
  static constexpr std::size_t kMinCapacity = 64;  // power of two

  struct Cell {
    std::uint64_t key = 0;
    V value{};
    bool used = false;
  };

  // SplitMix64 finalizer: full-avalanche mixing so sequential row keys
  // spread across the table.
  static std::size_t hash(std::uint64_t k) {
    k ^= k >> 30;
    k *= 0xbf58476d1ce4e5b9ULL;
    k ^= k >> 27;
    k *= 0x94d049bb133111ebULL;
    k ^= k >> 31;
    return static_cast<std::size_t>(k);
  }

  // First cell holding `key`, or the empty cell where it would go.
  const Cell* probe(std::uint64_t key) const {
    std::size_t i = hash(key) & mask_;
    while (cells_[i].used && cells_[i].key != key) i = (i + 1) & mask_;
    return &cells_[i];
  }
  Cell* probe(std::uint64_t key) {
    return const_cast<Cell*>(std::as_const(*this).probe(key));
  }

  void rehash(std::size_t cap) {
    std::vector<Cell> old = std::move(cells_);
    cells_.assign(cap, Cell{});
    mask_ = cap - 1;
    for (Cell& c : old) {
      if (!c.used) continue;
      std::size_t i = hash(c.key) & mask_;
      while (cells_[i].used) i = (i + 1) & mask_;
      cells_[i] = std::move(c);
    }
  }

  std::vector<Cell> cells_;
  std::size_t mask_ = 0;
  std::size_t used_ = 0;
};

}  // namespace wompcm
