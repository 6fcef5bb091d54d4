#include "arch/tag_array.h"

#include <stdexcept>

namespace wompcm {

const char* to_string(ReplacementKind kind) {
  switch (kind) {
    case ReplacementKind::kLru:
      return "lru";
    case ReplacementKind::kFifo:
      return "fifo";
    case ReplacementKind::kRandom:
      return "random";
  }
  return "?";
}

bool replacement_kind_from_string(const std::string& s, ReplacementKind* out) {
  if (s == "lru") {
    *out = ReplacementKind::kLru;
  } else if (s == "fifo") {
    *out = ReplacementKind::kFifo;
  } else if (s == "random") {
    *out = ReplacementKind::kRandom;
  } else {
    return false;
  }
  return true;
}

ReplacementState::ReplacementState(ReplacementKind kind, unsigned sets,
                                   unsigned ways, std::uint64_t seed)
    : kind_(kind), ways_(ways), rng_(seed) {
  if (kind == ReplacementKind::kLru || kind == ReplacementKind::kFifo) {
    stamp_.assign(static_cast<std::size_t>(sets) * ways, 0);
  }
}

TagArray::TagArray(unsigned sets, unsigned ways, ReplacementKind repl,
                   std::uint64_t seed)
    : sets_(sets), ways_(ways), repl_(repl, sets, ways, seed) {
  if (sets_ == 0 || ways_ == 0) {
    throw std::invalid_argument("TagArray: sets and ways must be positive");
  }
  frames_.resize(static_cast<std::size_t>(sets_) * ways_);
}

unsigned TagArray::fill_way(unsigned set) {
  const WayState* base = &frames_[static_cast<std::size_t>(set) * ways_];
  for (unsigned w = 0; w < ways_; ++w) {
    if (!base[w].valid) return w;
  }
  return repl_.victim(set);
}

}  // namespace wompcm
