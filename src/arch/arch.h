// Architecture: the policy layer the memory controller consults.
//
// The controller owns the timing machinery (queues, banks, bus, refresh
// engine); the Architecture decides *where* an access goes (which bank-like
// resource), *how long* its array phase takes (the WOM fast path vs the
// alpha-write), and what side work it creates (WCPCM victim write-backs).
// It is one concrete class, built complete from an ArchConfig whose
// Composition names the policies it wires together.
//
// Resource indexing: main banks occupy flat indices
// [0, channels*ranks*banks_per_rank); compositions with per-rank WOM-cache
// arrays (WCPCM) append one resource per rank after the main banks.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "arch/coding_policy.h"
#include "arch/row_table.h"
#include "common/address.h"
#include "common/function_ref.h"
#include "common/types.h"
#include "controller/remap_table.h"
#include "controller/wear_leveling.h"
#include "pcm/fault_model.h"
#include "pcm/energy.h"
#include "pcm/timing.h"
#include "stats/metrics.h"
#include "stats/stats.h"

namespace wompcm {

class CacheLayer;
class RatRefreshPolicy;

// ---- Composable architecture description ----
//
// Every architecture is a composition of orthogonal policies: a coding
// scheme for the main-memory region, an optional per-rank WOM-cache front
// end with its own coding scheme, and a refresh policy that attaches to
// each WOM-coded region. The paper's designs are named points in this
// space (see arch_presets); the cross-product admits designs the paper
// never evaluated (Flip-N-Write behind a WOM-cache, hidden-page + refresh,
// a symmetric-latency cache as an upper bound).

enum class RefreshKind : std::uint8_t {
  kNone,
  kRat,  // row-address tables + burst re-initialization (Section 3.2)
};

const char* to_string(RefreshKind k);
// Parser for the config key refresh=. Returns false on an unknown name.
bool refresh_kind_from_string(const std::string& s, RefreshKind* out);

struct Composition {
  CodingKind main_coding = CodingKind::kRaw;
  bool cache_enabled = false;
  // Coding of the per-rank WOM-cache arrays; meaningful only when
  // cache_enabled (normalized to kWomWide otherwise so compositions that
  // differ only in a disabled cache's coding compare equal).
  CodingKind cache_coding = CodingKind::kWomWide;
  RefreshKind refresh = RefreshKind::kNone;

  bool operator==(const Composition&) const = default;
};

// A named composition: the value of the config key arch=, and the names
// C++ callers use for the paper's designs.
struct ArchPreset {
  const char* name;
  Composition composition;
};

// Every preset, in this order:
//   pcm        conventional PCM, every write is SET-bound
//   wom        WOM-code PCM, wide-column organization (Section 3.1)
//   refresh    WOM-code PCM + PCM-refresh (Section 3.2)
//   wcpcm      WOM-code cached PCM (Section 4)
//   fnw        Flip-N-Write coding baseline (ablation)
//   symmetric  hypothetical S=1 memory (every write at RESET latency): the
//              upper bound all the WOM machinery chases
// The hidden-page WOM organization is main.coding=wom-hidden on top of
// wom or refresh.
std::span<const ArchPreset> arch_presets();

// The composition of the preset called `name`. Throws std::invalid_argument
// listing the preset names when there is none.
Composition arch_preset(std::string_view name);

// Validates and normalizes a composition. Returns false (with an
// actionable message in *why) for combinations with no meaning: refresh
// without a WOM-coded region, a hidden-page-coded cache, ...
bool composition_valid(const Composition& c, std::string* why = nullptr);
// As above but throwing std::invalid_argument; returns the normalized
// composition.
Composition validate_composition(Composition c);

struct ArchConfig {
  // The architecture; the default is conventional PCM (preset pcm).
  // The Architecture constructor validates it.
  Composition composition;
  // WOM-code used by every WOM-coded region; must be an inverted code.
  std::string code = "rs23-inv";
  // Per-region code overrides (config keys main.code= / cache.code=).
  // Empty means "derive": classic WOM kinds fall back to `code`, the
  // sectioned families (polar / ts-constrained) to their family default.
  std::string main_code;
  std::string cache_code;
  // Row-address-table capacity per refresh unit (Section 3.2 uses 5);
  // must be >= 1.
  unsigned rat_entries = 5;
  // Flip-N-Write: probability that a write needs no SET pulse at all.
  double fnw_fast_fraction = 0.0;
  std::uint64_t seed = 1;
  // Optional Start-Gap wear leveling on the main-memory rows (endurance
  // extension; the paper leaves endurance open). One gap move per
  // `start_gap_interval` (>= 1) writes per bank. Rejected with a cache
  // front end: the cache index is the row address, so remapping main rows
  // would desynchronize the tags.
  bool start_gap = false;
  unsigned start_gap_interval = 128;
};

// The architecture: one composition of orthogonal policies. It holds a
// main-memory CodingPolicy, an optional per-rank WOM-cache CacheLayer with
// the cache's CodingPolicy, and per-region RatRefreshPolicy instances, and
// owns what every composition shares: routing, Start-Gap, the fault
// pipeline and the accounting books.
class Architecture {
 public:
  // Builds the complete architecture, in this order: validates the geometry,
  // the timing, Start-Gap (rejected with a cache front end), cfg.rat_entries
  // and cfg.start_gap_interval (both >= 1); validates cfg.composition and
  // resolves the code of each WOM-coded region (unknown / non-inverted codes
  // throw); enables Start-Gap when cfg.start_gap; installs the fault model
  // (pcm/fault_model.h; a disabled config keeps the off-path bit-identical
  // to a build without faults). Throws std::invalid_argument naming the
  // problem.
  Architecture(const MemoryGeometry& geom, const PcmTiming& timing,
               const ArchConfig& cfg, const FaultConfig& fault = {});
  ~Architecture();

  std::string name() const;

  // Total bank-like resources (main banks + any per-rank cache arrays).
  unsigned num_resources() const;

  // Resource an access will occupy. Pure routing: must not mutate state.
  // With a cache front end a demand read probes the cache tags, which can
  // change while the read waits in a queue, but only in plan() for a cache
  // write, which then sets IssuePlan::retagged: only reads of that
  // (channel, rank, row) can route elsewhere afterwards. Every other access
  // class routes identically for the lifetime of the transaction.
  unsigned route(const DecodedAddr& dec, AccessType type, bool internal) const;

  // Channel that owns a bank-like resource. Resources never span channels;
  // per-channel controllers use this to claim exactly their own banks.
  unsigned resource_channel(unsigned resource) const;

  // True for the per-rank WOM-cache arrays, false for main-memory banks.
  // Drives the per-class utilization/row-hit split.
  bool is_cache_resource(unsigned resource) const {
    return cache_ != nullptr && resource >= main_banks();
  }

  // Commits the access at issue time (updates WOM generations, cache tags,
  // energy) and returns its plan. Called exactly once per issued access.
  IssuePlan plan(const DecodedAddr& dec, AccessType type, bool internal,
                 Tick now);

  // ---- PCM-refresh hooks (Section 3.2) ----

  // Work done by one burst-mode refresh command.
  struct RefreshWork {
    std::vector<unsigned> resources;  // units that streamed a row
    unsigned rows = 0;                // rows re-initialized
  };

  bool refresh_enabled() const {
    return main_rat_ != nullptr || cache_rat_ != nullptr;
  }
  // Fraction of this rank's refreshable units that have at least one row
  // pending re-initialization (compared against r_th by the engine).
  double refresh_pending_fraction(unsigned channel, unsigned rank) const;
  // Executes one burst-mode refresh command against the units of
  // (channel, rank) for which `unit_ready` is true (idle banks: demand on
  // the other banks proceeds untouched, which is what write pausing buys).
  // Pops pending rows from the row address tables and re-initializes them.
  RefreshWork perform_refresh(unsigned channel, unsigned rank,
                              FunctionRef<bool(unsigned)> unit_ready);
  // Resources a refresh of (channel, rank) may touch.
  std::vector<unsigned> refresh_resources(unsigned channel,
                                          unsigned rank) const;

  // Capacity overhead relative to uncoded PCM (e.g. 0.5 for full
  // <2^2>^2/3 WOM-code PCM, 1.5/32 for WCPCM): the main coding's expansion
  // plus, with a cache, one coded bank's worth of rows per rank.
  double capacity_overhead() const;

  const CounterSet& counters() const { return counters_; }
  const EnergyCounters& energy() const { return energy_; }
  // Generations, wear and fault states of every row either region wrote.
  const RowTable& rows() const { return rows_; }
  const MemoryGeometry& geometry() const { return geom_; }

  // Publishes the architecture's end-of-run scalars (energy, wear,
  // capacity overhead) into the unified registry. `end_time` is the last
  // completion instant, needed for the lifetime projection.
  void publish_metrics(MetricsRegistry& reg, Tick end_time) const;

  bool start_gap_enabled() const { return !start_gap_.empty(); }
  bool faults_enabled() const { return fault_ != nullptr; }
  // Test/diagnostic access; null while faults are off.
  const SpareRowRemapper* remapper() const { return remap_.get(); }
  const FaultModel* fault_model() const { return fault_.get(); }

  // Test access: pending rows in one main bank's RAT.
  std::size_t rat_size(unsigned flat_bank_idx) const;
  double write_hit_rate() const;

 private:
  unsigned main_banks() const { return mapper_.num_flat_banks(); }
  unsigned flat_bank(const DecodedAddr& dec) const {
    return mapper_.flat_bank(dec);
  }
  // The row table's key of `row` in bank-like resource `bank` (a main
  // bank, or a cache array keyed as a bank after the main banks).
  RowKey row_key_for(unsigned bank, unsigned row) const {
    // Physical rows may include the Start-Gap spare (== rows_per_bank) and,
    // with faults enabled, the bank's fault spares — the stride widens to
    // cover them (see the constructor), so keys never collide across banks.
    // With faults off the stride is rows_per_bank + 1, unchanged.
    return static_cast<RowKey>(bank) * row_key_stride_ + row;
  }
  std::uint64_t line_bits() const { return geom_.line_bytes() * 8ull; }
  // The books a region's CodingPolicy publishes into: this architecture's.
  RegionContext region_context() {
    return {&timing_,    &counters_,       &energy_,      &rows_,
            line_bits(), &active_channel_, geom_.channels};
  }
  unsigned cache_resource(unsigned channel, unsigned rank) const;
  // Row key of a cache row, disjoint from main-memory keys (cache arrays
  // are keyed as banks appended after the main banks).
  RowKey cache_row_key(unsigned cache_idx, unsigned row) const {
    return row_key_for(main_banks() + cache_idx, row);
  }

  IssuePlan plan_main_write(const DecodedAddr& dec, bool internal,
                            IssuePlan p);
  IssuePlan plan_cache_write(const DecodedAddr& dec, IssuePlan p);

  // Physical row backing this access. With Start-Gap enabled, writes may
  // trigger a gap move whose row-copy cost is charged to `plan->post_ns`.
  // With faults enabled, rows retired to spares resolve through the remap
  // table afterwards.
  unsigned physical_row(const DecodedAddr& dec, AccessType type,
                        IssuePlan* plan);

  // Bad-row chain only (no Start-Gap): for paths that address main memory
  // directly by decoded row (WCPCM victims / bypasses).
  unsigned resolved_row(unsigned bank, unsigned row) const {
    return remap_ == nullptr ? row : remap_->resolve(bank, row);
  }

  // ---- Fault pipeline (no-ops while faults are off) ----

  struct FaultOutcome {
    bool demoted = false;       // fast-path write demoted to alpha
    bool remapped = false;      // row retired; plan->row moved to a spare
    bool dead_unmapped = false; // line dead but not remappable here (cache
                                // rows, exhausted spares): caller degrades
  };

  // Write-path hook. Call after plan->row / write_class / program_ns are
  // settled and *before* energy/wear accounting, so demotion and remapping
  // are charged at the rates the cells actually saw. `keyed_bank` is the
  // row_key_for bank index (main_banks() + the array index for WCPCM cache
  // rows) and `id` the row's slab id claimed by begin_write; `allow_remap`
  // is false for rows with no spare pool behind them.
  FaultOutcome fault_on_write(unsigned keyed_bank, std::uint32_t id,
                              unsigned channel, unsigned line,
                              bool allow_remap, IssuePlan* p);

  // Read-path hook: transient read-disturb draw; a disturbed read pays one
  // corrective re-read.
  void fault_on_read(unsigned channel, IssuePlan* p);

  // Cached counter increment for per-access hot paths: binds `slot` on the
  // first call and skips the string-keyed map lookup afterwards. Equivalent
  // to counters_.inc(name, by), including key creation on the first call.
  void bump(std::uint64_t*& slot, const char* name, std::uint64_t by = 1) {
    if (slot == nullptr) slot = counters_.slot(name);
    *slot += by;
  }

  // Per-channel fault bookkeeping, summed into fault.* metrics and also
  // published per channel (ch<N>.fault.*).
  struct FaultTally {
    std::uint64_t injected = 0;       // healthy -> degraded/dead transitions
    std::uint64_t retries = 0;        // extra write-verify programming pulses
    std::uint64_t demoted = 0;        // fast-path writes demoted to alpha
    std::uint64_t remapped = 0;       // rows retired to spares
    std::uint64_t dead_rows = 0;      // rows declared dead (pre-remap)
    std::uint64_t read_disturbs = 0;  // transient read upsets
    std::uint64_t exhausted = 0;      // retirements denied: spare pool empty
  };

  MemoryGeometry geom_;
  AddressMapper mapper_;
  PcmTiming timing_;
  CounterSet counters_;
  EnergyCounters energy_;
  std::vector<StartGapRemapper> start_gap_;  // per main bank; empty = off
  std::unique_ptr<FaultModel> fault_;        // null = faults off
  std::unique_ptr<SpareRowRemapper> remap_;  // null = no spare pool
  std::vector<FaultTally> fault_by_channel_;
  unsigned row_key_stride_;  // rows_per_bank + 1 (+ fault spares)

  Composition comp_;
  // Channel of the access currently being planned (or rank being
  // refreshed). Set at the top of plan()/perform_refresh() and aliased by
  // the coding policies' RegionContext::channel, it keys every per-channel
  // stream — energy buckets, the FNW draw RNGs. The registry corpus pins
  // the results of this per-channel accounting.
  unsigned active_channel_ = 0;
  RowTable rows_;
  CodingPolicy main_coding_;
  std::unique_ptr<CacheLayer> cache_;             // null = no front end
  std::optional<CodingPolicy> cache_coding_;      // engaged iff cache_
  std::unique_ptr<RatRefreshPolicy> main_rat_;    // null = not attached
  std::unique_ptr<RatRefreshPolicy> cache_rat_;   // null = not attached

  // Lazily-bound counter slots for the per-access hot path (see bump).
  std::uint64_t* ctr_reads_ = nullptr;
  std::uint64_t* ctr_write_hits_ = nullptr;
  std::uint64_t* ctr_write_misses_ = nullptr;
  std::uint64_t* ctr_victims_ = nullptr;
  std::uint64_t* ctr_read_hits_ = nullptr;
  std::uint64_t* ctr_read_misses_ = nullptr;
  std::uint64_t* ctr_dead_cache_rows_ = nullptr;
  std::uint64_t* ctr_bypass_writes_ = nullptr;
  std::uint64_t* ctr_refresh_rows_ = nullptr;
};

}  // namespace wompcm
