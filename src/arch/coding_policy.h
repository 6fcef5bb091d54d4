// Coding policies: how one memory region (main memory or the per-rank
// WOM-cache) stores its lines, classed per write.
//
// A CodingPolicy owns the region's generation tracking, write classing and
// program-latency selection, plus the per-write counter/energy/wear
// accounting. It deliberately does NOT own routing, fault injection or
// refresh scheduling — those stay in the Architecture so one fault
// pipeline and one refresh engine serve every composition. The write path
// is split around the fault pipeline:
//
//   begin_write()   record the write, settle write_class / program_ns
//   (fault pipeline runs: may demote the fast path, may remap the row)
//   note_remap()    re-record at the spare's key after a remap
//   finish_write()  counters, energy, wear, organization extras
//
// so demotion and remapping are charged at the rates the cells actually
// saw.
#pragma once

#include <cstdint>
#include <memory>

#include "arch/arch.h"
#include "common/rng.h"
#include "wom/wom_code.h"
#include "wom/wom_tracker.h"

namespace wompcm {

// The accounting surface a policy publishes into. The pointers alias the
// owning Architecture's own state, so both regions of a composition write
// one set of books.
struct RegionContext {
  const PcmTiming* timing = nullptr;
  CounterSet* counters = nullptr;
  EnergyCounters* energy = nullptr;
  WearTracker* wear = nullptr;
  std::uint64_t line_bits = 0;  // uncoded bits per line
  // Channel of the access currently being planned (aliases the owning
  // architecture's cursor, kept current across plan()/perform_refresh()).
  // Stochastic policies draw from a per-channel stream keyed by it, so
  // their draws — like the fault model's — depend only on that channel's
  // own issue order (the registry corpus pins the results). Null means
  // "always channel 0" (single-region tests).
  const unsigned* channel = nullptr;
  // Number of channels, for sizing per-channel streams.
  unsigned channels = 1;
};

class CodingPolicy {
 public:
  // The decision made before the fault pipeline runs: the class the coding
  // scheme chose (faults may later demote kResetOnly to kAlpha) and
  // whether it was a cold alpha (first touch of an unknown-state line).
  struct WriteBegin {
    WriteClass cls = WriteClass::kAlpha;
    bool cold = false;
  };

  explicit CodingPolicy(const RegionContext& ctx) : ctx_(ctx) {}
  virtual ~CodingPolicy() = default;

  virtual CodingKind kind() const = 0;
  // Capacity overhead of this coding relative to uncoded storage.
  virtual double overhead() const = 0;

  // Records the write in the region's generation state and settles
  // plan->write_class / plan->program_ns. `track_key` identifies the
  // (bank, row) in the region's tracker key space.
  virtual WriteBegin begin_write(std::uint64_t track_key, unsigned line,
                                 IssuePlan* p) = 0;

  // The fault pipeline moved the row onto a fresh spare: re-record there so
  // the rewrite budget tracks the cells actually being programmed.
  virtual void note_remap(std::uint64_t track_key, unsigned line) {
    (void)track_key;
    (void)line;
  }

  // Counters, energy, wear and organization extras. `demoted` is the fault
  // pipeline's fast-path demotion verdict; `internal` marks controller-
  // spawned writes (cache victims and dead-row bypasses), which count as
  // "writes.victim" instead of the demand classes. `wear_key` is the
  // region's wear/fault key for the row (identical to track_key for main
  // memory; disjoint for the cache, whose tracker keys are array-local).
  // Returns true when the write left the row with lines at the rewrite
  // limit — a refresh candidate.
  virtual bool finish_write(const WriteBegin& rec, bool demoted,
                            std::uint64_t track_key, std::uint64_t wear_key,
                            unsigned line, bool internal, IssuePlan* p) = 0;

  // Read-path energy (the caller owns the read counters) and organization
  // extras (the hidden-page dependent second access), split so the fault
  // pipeline's read hook runs between them.
  virtual void read_energy(IssuePlan* p) = 0;
  virtual void read_extras(IssuePlan* p) { (void)p; }

  // PCM-refresh support: re-initializes one row's codewords. Returns false
  // when the scheme has no refreshable generation state, or when the row
  // had no lines at the limit (a stale RAT entry).
  virtual bool refresh_row(std::uint64_t track_key, std::uint64_t wear_key) {
    (void)track_key;
    (void)wear_key;
    return false;
  }
  virtual bool refreshable() const { return false; }

  // The WOM code behind a WOM-coded region; null otherwise.
  virtual const WomCode* code() const { return nullptr; }

 protected:
  // Cached counter increment (same contract as Architecture::bump).
  void bump(std::uint64_t*& slot, const char* name, std::uint64_t by = 1) {
    if (slot == nullptr) slot = ctx_.counters->slot(name);
    *slot += by;
  }

  // Channel of the access being planned (0 when the owner wired no cursor).
  unsigned active_channel() const {
    return ctx_.channel == nullptr ? 0u : *ctx_.channel;
  }

  RegionContext ctx_;
  std::uint64_t* ctr_victim_ = nullptr;
};

// Resolves `name` to an inverted WOM code, throwing std::invalid_argument
// (unknown code / conventional write direction) otherwise.
WomCodePtr resolve_inverted_wom_code(const std::string& name);

// The resolved code parameters one WOM-coded region runs under. The timing
// simulator carries no data payloads, so a region needs only the code's
// section geometry and classification parameters — not the codec itself.
// `code` is the symbol code behind the classic kinds (and the bit-exact
// reference codecs); native sectioned families (ts-constrained) have none.
struct RegionCode {
  std::string name;
  unsigned data_bits = 0;    // k per section
  unsigned wits = 0;         // n per section
  unsigned max_writes = 0;   // t per section
  double wear_bound = 1.0;   // fraction of cells an in-budget write touches
  bool lut = false;          // EncodeLut fast path behind the encode
  WomCodePtr code;           // null for native block families
};

// Resolves the code a WOM-coded region of `kind` runs: `override_name`
// (the main.code= / cache.code= key) when set, else `legacy_code` (the
// code= key) for the classic kinds or the family default for the sectioned
// ones. Validates family membership, write direction, and that `line_bits`
// splits into whole sections; throws std::invalid_argument with an
// actionable message otherwise. Non-WOM kinds return an empty RegionCode.
RegionCode resolve_region_code(CodingKind kind,
                               const std::string& override_name,
                               const std::string& legacy_code,
                               std::uint64_t line_bits);

// Policy factory. `code` must be resolved (resolve_region_code) for the
// WOM kinds and is ignored by the others; `erased_start` seeds untouched
// rows as erased (the boot-formatted WOM-cache) instead of unknown.
std::unique_ptr<CodingPolicy> make_coding_policy(
    CodingKind kind, const RegionContext& ctx, RegionCode code,
    unsigned lines_per_row, bool erased_start, double fnw_fast_fraction,
    std::uint64_t seed);

}  // namespace wompcm
