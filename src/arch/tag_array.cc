#include "arch/tag_array.h"

#include <algorithm>
#include <stdexcept>

namespace wompcm {

const char* to_string(ReplacementKind kind) {
  switch (kind) {
    case ReplacementKind::kBankTag:
      return "bank_tag";
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
  if (s == "bank_tag") {
    *out = ReplacementKind::kBankTag;
  } else if (s == "lru") {
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

namespace {

void require_bank_tag_one_way(ReplacementKind kind, unsigned ways) {
  if (kind == ReplacementKind::kBankTag && ways != 1) {
    throw std::invalid_argument(
        "bank_tag replacement requires 1-way sets (the set index is the "
        "row and the tag is the bank)");
  }
}

// The WOM cache's scheme: 1-way sets indexed by row, tagged by bank. The
// only possible victim is the occupant, so every hook is a no-op.
class BankTagPolicy final : public ReplacementPolicy {
 public:
  const char* name() const override { return "bank_tag"; }
  void touch(unsigned, unsigned) override {}
  void install(unsigned, unsigned) override {}
  unsigned victim(unsigned) override { return 0; }
  void invalidate(unsigned, unsigned) override {}
};

// Exact LRU via per-frame use stamps from one monotone clock; the victim
// is the least recently stamped way.
class LruPolicy final : public ReplacementPolicy {
 public:
  LruPolicy(unsigned sets, unsigned ways)
      : ways_(ways),
        stamp_(static_cast<std::size_t>(sets) * ways, 0) {}
  const char* name() const override { return "lru"; }
  void touch(unsigned set, unsigned way) override { mark(set, way); }
  void install(unsigned set, unsigned way) override { mark(set, way); }
  unsigned victim(unsigned set) override {
    const std::uint64_t* base = &stamp_[static_cast<std::size_t>(set) * ways_];
    return static_cast<unsigned>(
        std::min_element(base, base + ways_) - base);
  }
  void invalidate(unsigned set, unsigned way) override {
    stamp_[static_cast<std::size_t>(set) * ways_ + way] = 0;
  }

 private:
  void mark(unsigned set, unsigned way) {
    stamp_[static_cast<std::size_t>(set) * ways_ + way] = ++clock_;
  }
  unsigned ways_;
  std::uint64_t clock_ = 0;
  std::vector<std::uint64_t> stamp_;
};

// FIFO: per-frame install stamps only; hits do not refresh a line's
// position in the eviction order.
class FifoPolicy final : public ReplacementPolicy {
 public:
  FifoPolicy(unsigned sets, unsigned ways)
      : ways_(ways),
        stamp_(static_cast<std::size_t>(sets) * ways, 0) {}
  const char* name() const override { return "fifo"; }
  void touch(unsigned, unsigned) override {}
  void install(unsigned set, unsigned way) override {
    stamp_[static_cast<std::size_t>(set) * ways_ + way] = ++clock_;
  }
  unsigned victim(unsigned set) override {
    const std::uint64_t* base = &stamp_[static_cast<std::size_t>(set) * ways_];
    return static_cast<unsigned>(
        std::min_element(base, base + ways_) - base);
  }
  void invalidate(unsigned set, unsigned way) override {
    stamp_[static_cast<std::size_t>(set) * ways_ + way] = 0;
  }

 private:
  unsigned ways_;
  std::uint64_t clock_ = 0;
  std::vector<std::uint64_t> stamp_;
};

// Uniform random victim from a seeded xoshiro stream: deterministic for a
// given (seed, call sequence).
class RandomPolicy final : public ReplacementPolicy {
 public:
  RandomPolicy(unsigned ways, std::uint64_t seed) : ways_(ways), rng_(seed) {}
  const char* name() const override { return "random"; }
  void touch(unsigned, unsigned) override {}
  void install(unsigned, unsigned) override {}
  unsigned victim(unsigned) override {
    return static_cast<unsigned>(rng_.next_below(ways_));
  }
  void invalidate(unsigned, unsigned) override {}

 private:
  unsigned ways_;
  Rng rng_;
};

}  // namespace

std::unique_ptr<ReplacementPolicy> make_replacement_policy(
    ReplacementKind kind, unsigned sets, unsigned ways, std::uint64_t seed) {
  switch (kind) {
    case ReplacementKind::kBankTag:
      require_bank_tag_one_way(kind, ways);
      return std::make_unique<BankTagPolicy>();
    case ReplacementKind::kLru:
      return std::make_unique<LruPolicy>(sets, ways);
    case ReplacementKind::kFifo:
      return std::make_unique<FifoPolicy>(sets, ways);
    case ReplacementKind::kRandom:
      return std::make_unique<RandomPolicy>(ways, seed);
  }
  throw std::invalid_argument("unknown replacement kind");
}

ReplacementState::ReplacementState(ReplacementKind kind, unsigned sets,
                                   unsigned ways, std::uint64_t seed)
    : kind_(kind), ways_(ways), rng_(seed) {
  require_bank_tag_one_way(kind, ways);
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
