// Memoized WOM-code encode/decode tables.
//
// For codes with few wits (every code the paper evaluates: rs23 has 3,
// marker/parity families stay small) the whole transition function
// (value x generation x current-state) -> next-state fits in a dense table
// indexed by the codeword's wit state packed into a machine word. PageCodec
// uses it to encode a symbol with two array lookups instead of a virtual
// call plus several BitVec allocations.
//
// Tables are built once per code and shared: EncodeLut::for_code() keeps a
// process-wide cache keyed by the code's name (code names are fully
// parameterized, so a name always denotes the same code). The cache is
// mutex-guarded because sweep cells run on pool workers concurrently.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

#include "wom/wom_code.h"

namespace wompcm {

class EncodeLut {
 public:
  // Dense tables are 2^wits x 2^data_bits wide per generation; cap both the
  // packing width and the total footprint (kMaxEntries u32 = 16 MiB).
  static constexpr unsigned kMaxWits = 16;
  static constexpr std::uint64_t kMaxEntries = std::uint64_t{1} << 22;
  static constexpr std::uint32_t kInvalid = 0xFFFFFFFFu;

  static bool eligible(const WomCode& code) {
    if (code.wits() > kMaxWits) return false;
    const std::uint64_t entries = std::uint64_t{code.max_writes()}
                                  << (code.wits() + code.data_bits());
    return entries <= kMaxEntries;
  }

  // Shared, cached table for `code`; nullptr if the code is too wide.
  static std::shared_ptr<const EncodeLut> for_code(const WomCodePtr& code);

  unsigned data_bits() const { return k_; }
  unsigned wits() const { return n_; }
  unsigned max_writes() const { return t_; }

  // Next wit state after writing `value` as the `generation`-th write into
  // state `cur`. Only states the code itself can produce are populated; the
  // codec never holds any other state.
  std::uint32_t encode(unsigned value, unsigned generation,
                       std::uint32_t cur) const {
    assert(value < values_ && generation < t_ && cur < states_);
    const std::uint32_t next =
        enc_[(static_cast<std::size_t>(generation) * states_ + cur) * values_ +
             value];
    assert(next != kInvalid);
    return next;
  }

  // Stored value of a (reachable) wit state.
  unsigned decode(std::uint32_t state) const {
    assert(state < states_);
    const std::uint32_t v = dec_[state];
    assert(v != kInvalid);
    return v;
  }

 private:
  explicit EncodeLut(const WomCode& code);

  unsigned k_ = 0;
  unsigned n_ = 0;
  unsigned t_ = 0;
  std::uint32_t values_ = 0;
  std::uint32_t states_ = 0;
  std::vector<std::uint32_t> enc_;  // [generation][state][value] -> state
  std::vector<std::uint32_t> dec_;  // [state] -> value
};

}  // namespace wompcm
