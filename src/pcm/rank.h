// Rank-level helpers: a rank is the refresh scheduling unit (Section 3.2),
// and BankBitmap is the word-packed bank-set representation the controller
// uses for O(words) readiness/occupancy tests across a channel's banks.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "pcm/bank.h"

namespace wompcm {

// Non-owning view over the banks of one rank (plus, for WCPCM, the rank's
// WOM-cache array, which refreshes with the rank).
class RankView {
 public:
  explicit RankView(std::span<Bank> banks) : banks_(banks) {}

  std::size_t size() const { return banks_.size(); }
  Bank& bank(std::size_t i) { return banks_[i]; }
  const Bank& bank(std::size_t i) const { return banks_[i]; }

  // A rank is idle when no bank is servicing a demand op or refreshing.
  bool idle(Tick now) const;

  // Occupies every bank of the rank with a burst-mode refresh until `until`.
  void begin_refresh(Tick until);

 private:
  std::span<Bank> banks_;
};

// Fixed-size bit set over a channel's bank-shaped resources, packed into
// 64-bit words. The controller keeps one as the demand-readiness mask
// (bit set = the bank could start a demand op right now) and each
// transaction queue keeps one as its bank-occupancy mask (bit set = at
// least one queued entry targets that bank); `intersects` between the two
// answers "could anything in this queue issue?" without touching a single
// queue entry. All mutators are O(1); intersects/any are O(words), i.e.
// 8 words for the paper geometry's 512 flat banks per channel.
class BankBitmap {
 public:
  BankBitmap() = default;

  // Sizes the map to `bits` resources, all initialised to `value`.
  // Allocates; call once at construction time, not on the hot path.
  void resize(unsigned bits, bool value);

  void set(unsigned bit) {
    words_[bit >> 6] |= std::uint64_t{1} << (bit & 63);
  }
  void clear(unsigned bit) {
    words_[bit >> 6] &= ~(std::uint64_t{1} << (bit & 63));
  }
  bool test(unsigned bit) const {
    return (words_[bit >> 6] >> (bit & 63)) & 1u;
  }

  // True when any bit is set in both maps. The maps must be sized over the
  // same resource space (same resize width).
  bool intersects(const BankBitmap& other) const;

  bool any() const;
  unsigned bits() const { return bits_; }

  // Word `i` of the packed map: bits [64 * i, 64 * i + 64).
  std::uint64_t word(std::size_t i) const { return words_[i]; }
  std::size_t words() const { return words_.size(); }

 private:
  std::vector<std::uint64_t> words_;
  unsigned bits_ = 0;
};

}  // namespace wompcm
