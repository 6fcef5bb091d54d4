// The one Architecture implementation: a composition of orthogonal policies.
//
// A ComposedArchitecture wires a main-memory CodingPolicy, an optional
// per-rank WOM-cache CacheLayer (with its own CodingPolicy), and per-region
// RatRefreshPolicy instances into the Architecture interface the controller
// consumes. The paper's designs are named points in this space
// (arch_presets), and the cross-product admits designs the paper never
// evaluated (Flip-N-Write behind a WOM-cache, hidden-page + refresh, a
// symmetric-latency cache).
#pragma once

#include <memory>

#include "arch/arch.h"
#include "arch/cache_layer.h"
#include "arch/coding_policy.h"
#include "arch/refresh_policy.h"

namespace wompcm {

class ComposedArchitecture final : public Architecture {
 public:
  // Validates cfg.composition and builds the policy stack. Throws
  // std::invalid_argument on an invalid composition or (when a WOM-coded
  // region exists) an unknown / non-inverted cfg.code.
  ComposedArchitecture(const MemoryGeometry& geom, const PcmTiming& timing,
                       const ArchConfig& cfg);

  std::string name() const override;

  unsigned num_resources() const override;
  unsigned route(const DecodedAddr& dec, AccessType type,
                 bool internal) const override;
  // With a cache front end, demand reads probe the mutable cache tags: a
  // queued read's destination can flip between main memory and the
  // WOM-cache while it waits.
  bool read_route_dynamic() const override { return cache_ != nullptr; }
  std::uint64_t route_version() const override {
    return cache_ == nullptr ? 0 : cache_->route_version();
  }
  unsigned resource_channel(unsigned resource) const override;
  bool is_cache_resource(unsigned resource) const override {
    return cache_ != nullptr && resource >= main_banks();
  }
  IssuePlan plan(const DecodedAddr& dec, AccessType type, bool internal,
                 Tick now) override;

  bool refresh_enabled() const override {
    return main_rat_ != nullptr || cache_rat_ != nullptr;
  }
  double refresh_pending_fraction(unsigned channel,
                                  unsigned rank) const override;
  RefreshWork perform_refresh(
      unsigned channel, unsigned rank,
      const std::function<bool(unsigned)>& unit_ready) override;
  std::vector<unsigned> refresh_resources(unsigned channel,
                                          unsigned rank) const override;

  // Sum of the regions' overheads: the main coding's expansion plus, with a
  // cache, one coded bank's worth of rows per rank.
  double capacity_overhead() const override;

  const CodingPolicy& main_coding() const { return *main_coding_; }
  // Null without a cache front end.
  const CacheLayer* cache() const { return cache_.get(); }
  // The WOM code shared by the WOM-coded regions; null when none exists.
  const WomCode* code() const { return code_.get(); }

  // Test access: pending rows in one main bank's / one cache array's RAT.
  std::size_t rat_size(unsigned flat_bank_idx) const {
    return main_rat_ == nullptr ? 0 : main_rat_->size(flat_bank_idx);
  }
  std::size_t cache_rat_size(unsigned cache_idx) const {
    return cache_rat_ == nullptr ? 0 : cache_rat_->size(cache_idx);
  }
  double write_hit_rate() const;
  double read_hit_rate() const;

 private:
  unsigned cache_resource(unsigned channel, unsigned rank) const {
    return main_banks() + cache_->index(channel, rank);
  }
  // Wear/fault row key for a cache row, disjoint from main-memory keys
  // (cache arrays are keyed as banks appended after the main banks).
  std::uint64_t cache_wear_key(unsigned cache_idx, unsigned row) const {
    return row_key_for(main_banks() + cache_idx, row);
  }
  IssuePlan plan_main_write(const DecodedAddr& dec, bool internal,
                            IssuePlan p);
  IssuePlan plan_cache_write(const DecodedAddr& dec, IssuePlan p);

  Composition comp_;
  // Channel of the access currently being planned (or rank being
  // refreshed). Set at the top of plan()/perform_refresh() and aliased by
  // the coding policies' RegionContext::channel, it keys every per-channel
  // stream — energy buckets, the FNW draw RNGs — so per-channel accounting
  // stays exact whether channels run interleaved (serial) or each on its
  // own worker against its own replica (sharded).
  unsigned active_channel_ = 0;
  WomCodePtr code_;  // symbol code behind a WOM-coded region; null when
                     // none exists or the region runs a native block family
  std::string main_code_name_;   // empty when main memory is not WOM-coded
  std::string cache_code_name_;  // empty without a WOM-coded cache
  std::unique_ptr<CodingPolicy> main_coding_;
  std::unique_ptr<CacheLayer> cache_;             // null = no front end
  std::unique_ptr<RatRefreshPolicy> main_rat_;    // null = not attached
  std::unique_ptr<RatRefreshPolicy> cache_rat_;   // null = not attached

  // Lazily-bound counter slots for the per-access hot path (see
  // Architecture::bump).
  std::uint64_t* ctr_reads_ = nullptr;
  std::uint64_t* ctr_write_hits_ = nullptr;
  std::uint64_t* ctr_write_misses_ = nullptr;
  std::uint64_t* ctr_victims_ = nullptr;
  std::uint64_t* ctr_read_hits_ = nullptr;
  std::uint64_t* ctr_read_misses_ = nullptr;
  std::uint64_t* ctr_dead_rows_ = nullptr;
  std::uint64_t* ctr_bypass_writes_ = nullptr;
  std::uint64_t* ctr_refresh_rows_ = nullptr;
};

}  // namespace wompcm
