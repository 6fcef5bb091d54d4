// First-order PCM energy accounting.
//
// The paper does not evaluate energy beyond noting that one PCM-refresh
// costs one row read plus one row write; this model makes that statement
// quantitative and feeds the Flip-N-Write ablation. Per-bit pulse energies
// default to the values commonly used in the PCM architecture literature
// (Lee et al., ISCA 2009): RESET 19.2 pJ/bit, SET 13.5 pJ/bit, and a
// sensing cost of ~2 pJ/bit for reads.
//
// The timing simulator carries no data payloads, so pulse counts are
// estimated from the write class: a RESET-only write touches on average
// half of the coded bits with RESET pulses; an alpha or conventional write
// sets half and resets half of the bits it programs.
//
// Accumulation is bucketed per channel (select_channel() picks the bucket
// each access charges) and the getters fold the buckets in channel order.
// Floating-point addition does not commute, so the fold order is part of
// the result; the registry corpus pins the channel-ordered totals. A
// single-channel (or unconfigured) instance has one bucket and reads
// exactly like the plain accumulator it replaces.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.h"

namespace wompcm {

struct EnergyParams {
  double set_pj_per_bit = 13.5;
  double reset_pj_per_bit = 19.2;
  double read_pj_per_bit = 2.0;
};

class EnergyCounters {
 public:
  explicit EnergyCounters(EnergyParams params = {})
      : p_(params), buckets_(1) {}

  // Sizes one accumulation bucket per channel. Call before any accounting;
  // resets every bucket and the cursor.
  void configure_channels(unsigned channels);
  // Selects the bucket subsequent on_read/on_write/on_refresh/add_pulses
  // calls charge. No-op cheap; called once per planned access.
  void select_channel(unsigned channel) { cur_ = channel; }

  // Demand accesses program/read `bits` array bits.
  void on_read(std::uint64_t bits);
  void on_write(WriteClass cls, std::uint64_t bits);
  // A refresh re-initializes `bits` bits: one row read plus one row write
  // whose pulses are all SETs (erasing an inverted-code row raises bits).
  void on_refresh(std::uint64_t bits);

  // Exact-pulse interface for callers that know the real counts (PageCodec).
  void add_pulses(std::uint64_t set_pulses, std::uint64_t reset_pulses);

  // Folds the per-channel buckets in channel order (see header comment).
  double total_pj() const { return read_pj() + write_pj() + refresh_pj(); }
  double read_pj() const;
  double write_pj() const;
  double refresh_pj() const;
  std::uint64_t set_pulses() const;
  std::uint64_t reset_pulses() const;

 private:
  struct Bucket {
    double read_pj = 0;
    double write_pj = 0;
    double refresh_pj = 0;
    std::uint64_t set_pulses = 0;
    std::uint64_t reset_pulses = 0;
  };

  EnergyParams p_;
  std::vector<Bucket> buckets_;
  unsigned cur_ = 0;
};

}  // namespace wompcm
