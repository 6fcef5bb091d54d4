#include "wom/encode_lut.h"

#include <map>
#include <mutex>
#include <string>

namespace wompcm {

EncodeLut::EncodeLut(const WomCode& code)
    : k_(code.data_bits()),
      n_(code.wits()),
      t_(code.max_writes()),
      values_(1u << code.data_bits()),
      states_(1u << code.wits()) {
  enc_.assign(static_cast<std::size_t>(t_) * states_ * values_, kInvalid);
  dec_.assign(states_, kInvalid);

  // Breadth-first over the states the code can actually reach: generation g
  // only ever sees states produced by g-1 (or the erased state for g = 0,
  // packed with bit j = wit j). Enumerating blindly would feed encode() wit
  // patterns that are not codewords, which codes are allowed to reject.
  std::vector<std::uint32_t> frontier = {
      static_cast<std::uint32_t>(code.initial_state().extract_word(0, n_))};
  BitVec cur(n_);
  for (unsigned g = 0; g < t_; ++g) {
    std::vector<bool> in_next(states_, false);
    std::vector<std::uint32_t> next_frontier;
    for (const std::uint32_t s : frontier) {
      cur.deposit_word(0, n_, s);
      for (std::uint32_t v = 0; v < values_; ++v) {
        const BitVec out = code.encode(v, g, cur);
        const auto w =
            static_cast<std::uint32_t>(out.extract_word(0, n_));
        enc_[(static_cast<std::size_t>(g) * states_ + s) * values_ + v] = w;
        dec_[w] = v;
        if (!in_next[w]) {
          in_next[w] = true;
          next_frontier.push_back(w);
        }
      }
    }
    frontier = std::move(next_frontier);
  }
}

std::shared_ptr<const EncodeLut> EncodeLut::for_code(const WomCodePtr& code) {
  if (code == nullptr || !eligible(*code)) return nullptr;
  static std::mutex mu;
  static std::map<std::string, std::shared_ptr<const EncodeLut>> cache;
  const std::string key = code->name();
  std::lock_guard<std::mutex> lock(mu);
  auto it = cache.find(key);
  if (it == cache.end()) {
    it = cache.emplace(key, std::shared_ptr<const EncodeLut>(
                                new EncodeLut(*code)))
             .first;
  }
  return it->second;
}

}  // namespace wompcm
