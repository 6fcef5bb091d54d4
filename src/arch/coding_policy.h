// Coding policies: how one memory region (main memory or the per-rank
// WOM-cache) stores its lines, classed per write.
//
// A CodingPolicy owns the region's write classing and program-latency
// selection, plus the per-write counter/energy/wear accounting; the
// generations and wear it updates live in the owning Architecture's
// RowTable (arch/row_table.h). It deliberately does NOT own routing, fault
// injection or refresh scheduling — those stay in the Architecture so one
// fault pipeline and one refresh engine serve every composition. The write
// path is split around the fault pipeline:
//
//   begin_write()   claim the row, record the write, settle write_class /
//                   program_ns
//   (fault pipeline runs on the claimed row: may demote the fast path, may
//   remap the row)
//   note_remap()    claim the spare and re-record there after a remap
//   finish_write()  counters, energy, wear, organization extras
//
// so demotion and remapping are charged at the rates the cells actually
// saw.
//
// The coding kinds form a closed set, so CodingPolicy is one value type
// (the same shape as ReplacementState in arch/tag_array.h): each hook
// switches on the stored CodingKind, and the per-access hooks are inline
// so they flatten into Architecture::plan().
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "arch/row_table.h"
#include "common/address.h"
#include "common/rng.h"
#include "common/types.h"
#include "pcm/endurance.h"
#include "pcm/energy.h"
#include "pcm/timing.h"
#include "stats/stats.h"

namespace wompcm {

// An internal write the controller must enqueue on behalf of the
// architecture (e.g. a WOM-cache victim flushed to PCM main memory).
struct SpawnedWrite {
  DecodedAddr dec;
};

// The issue-time decision for one demand or internal access.
struct IssuePlan {
  unsigned resource = 0;  // bank-like resource the access occupies
  unsigned row = 0;       // row latched in that resource's row buffer
  Tick pre_ns = 0;        // before the array phase: tag checks, pauses
  Tick program_ns = 0;    // write programming latency (0 for reads)
  Tick post_ns = 0;       // after the array phase: hidden-page second access
  WriteClass write_class = WriteClass::kResetOnly;  // diagnostics
  // A cache write changed its row's tags: queued reads of that (channel,
  // rank, row) may route elsewhere now (Architecture::route).
  bool retagged = false;
  std::vector<SpawnedWrite> spawned;  // internal writes to enqueue
};

// How one region stores its lines.
enum class CodingKind : std::uint8_t {
  kRaw,         // uncoded: every write is SET-bound (conventional PCM)
  kWomWide,     // inverted WOM code, wide-column organization (Section 3.1)
  kWomHidden,   // inverted WOM code, hidden-page organization (Section 3.1)
  kFlipNWrite,  // Flip-N-Write coding (Cho & Lee, MICRO 2009)
  kSymmetric,   // hypothetical S=1 memory: every write at RESET latency
  kPolar,       // polar-kernel WOM block code, sectioned (wide columns)
  kTsConstrained,  // time-space constrained replica rotation, sectioned
};

const char* to_string(CodingKind k);
// Parser for the config keys main.coding= / cache.coding=. Returns false on
// an unknown name.
bool coding_kind_from_string(const std::string& s, CodingKind* out);

inline bool is_wom_coding(CodingKind k) {
  return k == CodingKind::kWomWide || k == CodingKind::kWomHidden ||
         k == CodingKind::kPolar || k == CodingKind::kTsConstrained;
}

// The accounting surface a policy publishes into. The pointers alias the
// owning Architecture's own state, so both regions of a composition write
// one set of books and one row table.
struct RegionContext {
  const PcmTiming* timing = nullptr;
  CounterSet* counters = nullptr;
  EnergyCounters* energy = nullptr;
  RowTable* rows = nullptr;
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

// The resolved code parameters one WOM-coded region runs under. The timing
// simulator carries no data payloads, so a region needs only the code's
// section geometry and classification parameters — not the codec itself.
struct RegionCode {
  std::string name;
  unsigned data_bits = 0;    // k per section
  unsigned wits = 0;         // n per section
  unsigned max_writes = 0;   // t per section
  double wear_bound = 1.0;   // fraction of cells an in-budget write touches
  bool lut = false;          // EncodeLut fast path behind the encode
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

// The four codings, one per family of CodingKind:
//
//   raw        conventional PCM: every write almost surely needs SET pulses
//              somewhere in the line, so it completes at the full row-write
//              latency.
//   symmetric  hypothetical symmetric-write memory: SET as fast as RESET
//              (S = 1), the latency upper bound every WOM scheme chases.
//   fnw        Flip-N-Write (Cho & Lee, MICRO 2009): at most half the bits
//              programmed per write, but RESET-latency completion only when
//              the chosen encoding needs no SET pulse anywhere — an explicit
//              probability here, since the timing model carries no data
//              payloads.
//   WOM kinds  inverted WOM-code region (Section 3.1): rewrites within the
//              code's budget are RESET-only; a row at the limit takes the
//              alpha-write. The hidden-page organization pays a dependent
//              second access per demand read and write. The sectioned kinds
//              (polar, ts-constrained) split a line into several codewords,
//              but a line write advances all of them, alpha re-initializes
//              all of them, and a refresh erases the whole row, so the
//              sections of a line always share its generation: one
//              generation per line classifies them all.
class CodingPolicy {
 public:
  // The decision made before the fault pipeline runs: the class the coding
  // scheme chose (faults may later demote kResetOnly to kAlpha), whether it
  // was a cold alpha (first touch of an unknown-state line), and the row
  // the write claimed.
  struct WriteBegin {
    WriteClass cls = WriteClass::kAlpha;
    bool cold = false;
    std::uint32_t id = 0;  // the row's slab id in the row table
  };

  // Builds the coding of `kind`. `code` must be resolved
  // (resolve_region_code) for the WOM kinds and is ignored by the others;
  // `erased_start` seeds the generations of the rows this region claims as
  // erased (the boot-formatted WOM-cache) instead of unknown;
  // `fnw_fast_fraction` is Flip-N-Write's probability that a write needs no
  // SET pulse, drawn from per-channel generators derived from `seed`.
  // Throws std::invalid_argument for a WOM kind without a resolved code.
  CodingPolicy(CodingKind kind, const RegionContext& ctx, RegionCode code,
               bool erased_start, double fnw_fast_fraction,
               std::uint64_t seed);

  // Capacity overhead of this coding relative to uncoded storage.
  double overhead() const { return overhead_; }
  // Only WOM-coded regions have generation state a refresh can restore.
  bool refreshable() const { return t_ > 0; }

  // The resolved code name of a WOM-coded region; empty otherwise.
  const std::string& code_name() const { return code_name_; }

  // Claims row `key` in the row table, records the write in its
  // generations (WOM kinds) and settles plan->write_class /
  // plan->program_ns.
  WriteBegin begin_write(RowKey key, unsigned line, IssuePlan* p) {
    WriteBegin rec;
    rec.id = ctx_.rows->claim(key, initial_gen_);
    switch (kind_) {
      case CodingKind::kRaw:
        rec.cls = WriteClass::kAlpha;
        break;
      case CodingKind::kSymmetric:
        rec.cls = WriteClass::kResetOnly;
        break;
      case CodingKind::kFlipNWrite: {
        Rng& rng = fnw_rngs_[active_channel()];
        const bool fast =
            fnw_fast_fraction_ > 0.0 && rng.next_bool(fnw_fast_fraction_);
        rec.cls = fast ? WriteClass::kResetOnly : WriteClass::kAlpha;
        break;
      }
      case CodingKind::kWomWide:
      case CodingKind::kWomHidden:
      case CodingKind::kPolar:
      case CodingKind::kTsConstrained: {
        const RowTable::WriteRecord r =
            ctx_.rows->record_write(rec.id, line, t_);
        rec.cls = r.cls;
        rec.cold = r.cold;
        break;
      }
    }
    p->write_class = rec.cls;
    p->program_ns = ctx_.timing->program_ns(rec.cls);
    return rec;
  }

  // The fault pipeline moved the row onto a fresh spare `key`: claim it
  // and, for the WOM kinds, re-record the write there so the rewrite budget
  // tracks the cells actually being programmed. The rest of the write is
  // charged to the spare.
  void note_remap(RowKey key, unsigned line, WriteBegin* rec) {
    rec->id = ctx_.rows->claim(key, initial_gen_);
    if (t_ > 0) ctx_.rows->record_write(rec->id, line, t_);
  }

  // Counters, energy, wear and organization extras. `demoted` is the fault
  // pipeline's fast-path demotion verdict; `internal` marks controller-
  // spawned writes (cache victims and dead-row bypasses), which count as
  // "writes.victim" instead of the demand classes. Returns true when the
  // write left the row with lines at the rewrite limit — a refresh
  // candidate.
  bool finish_write(const WriteBegin& rec, bool demoted, unsigned line,
                    bool internal, IssuePlan* p) {
    if (t_ == 0) {
      // raw / symmetric / fnw: counted by the class the coding chose, so a
      // fault-demoted symmetric write still counts as fast; charged at the
      // post-fault class.
      if (internal) {
        bump(ctr_victim_, "writes.victim");
      } else if (rec.cls == WriteClass::kResetOnly) {
        bump(ctr_fast_, "writes.fast");
      } else {
        bump(ctr_slow_, "writes.slow");
      }
      // Flip-N-Write programs at most half the line's bits; a conventional
      // bit-alterable write flips about half the cells.
      const bool fnw = kind_ == CodingKind::kFlipNWrite;
      ctx_.energy->on_write(p->write_class,
                            fnw ? ctx_.line_bits / 2 : ctx_.line_bits);
      ctx_.rows->add_wear(
          rec.id, line,
          fnw ? kResetOnlyWearPerCell / 2 : kResetOnlyWearPerCell);
      return false;
    }
    if (internal) {
      bump(ctr_victim_, "writes.victim");
    } else if (p->write_class == WriteClass::kAlpha) {
      bump(ctr_alpha_, "writes.alpha");
      // A cold alpha was alpha-classed before the fault pipeline ran, so it
      // can never also be a demotion; the guard keeps that invariant local.
      if (rec.cold && !demoted) bump(ctr_alpha_cold_, "writes.alpha.cold");
    } else {
      bump(ctr_fast_, "writes.fast");
    }
    // Every line write runs the encode once per line; publish whether it
    // took the two-lookup LUT fast path or the per-symbol fallback.
    if (lut_) {
      bump(ctr_lut_hits_, "codec.lut_hits");
    } else {
      bump(ctr_lut_fallbacks_, "codec.lut_fallbacks");
    }
    ctx_.energy->on_write(p->write_class, coded_line_bits_);
    // A wear-bounded family (time-space constrained) touches at most
    // wear_bound_ of the region's cells per write — scale the per-cell
    // wear rates accordingly (the others' bound is 1).
    ctx_.rows->add_wear(rec.id, line,
                        (p->write_class == WriteClass::kResetOnly
                             ? kResetOnlyWearPerCell
                             : kAlphaWearPerCell) *
                            wear_bound_);
    if (kind_ == CodingKind::kWomHidden) {
      // The upper half-codeword lives in a hidden page the controller
      // reserves in a parallel bank region, so its program overlaps the
      // main one; the cost is the extra command/data transfer plus the
      // tail of the (half-width) hidden program that outlasts the overlap.
      p->post_ns += ctx_.timing->burst_ns() + ctx_.timing->tag_check_ns;
      bump(ctr_hidden_writes_, "hidden_page.extra_writes");
    }
    return ctx_.rows->has_limit_lines(rec.id);
  }

  // Read-path energy (the caller owns the read counters) and organization
  // extras (the hidden-page dependent second access), split so the fault
  // pipeline's read hook runs between them.
  void read_energy() { ctx_.energy->on_read(coded_line_bits_); }
  void read_extras(IssuePlan* p) {
    if (kind_ != CodingKind::kWomHidden) return;
    // Fetch the hidden half-codeword (parallel bank region) before decode:
    // one extra column access plus its burst.
    p->post_ns += ctx_.timing->col_read_ns + ctx_.timing->burst_ns();
    bump(ctr_hidden_reads_, "hidden_page.extra_reads");
  }

  // PCM-refresh support: re-initializes the codewords of row `key`.
  // Returns false when the scheme has no refreshable generation state, or
  // when the row had no lines at the limit (a stale RAT entry).
  bool refresh_row(RowKey key);

 private:
  // Cached counter increment (same contract as Architecture::bump).
  void bump(std::uint64_t*& slot, const char* name, std::uint64_t by = 1) {
    if (slot == nullptr) slot = ctx_.counters->slot(name);
    *slot += by;
  }

  // Channel of the access being planned (0 when the owner wired no cursor).
  unsigned active_channel() const {
    return ctx_.channel == nullptr ? 0u : *ctx_.channel;
  }

  CodingKind kind_;
  RegionContext ctx_;
  double overhead_ = 0.0;
  std::uint64_t coded_line_bits_;  // bits stored per line, for energy
  // Flip-N-Write only: one generator per channel, indexed by
  // active_channel().
  double fnw_fast_fraction_ = 0.0;
  std::vector<Rng> fnw_rngs_;
  // WOM kinds only (t_ == 0 for the others): the code's rewrite limit.
  unsigned t_ = 0;
  std::string code_name_;
  double wear_bound_ = 1.0;
  bool lut_ = false;
  // Generation of every line of a row this region claims.
  std::uint8_t initial_gen_;

  std::uint64_t* ctr_victim_ = nullptr;
  std::uint64_t* ctr_fast_ = nullptr;
  std::uint64_t* ctr_slow_ = nullptr;
  std::uint64_t* ctr_alpha_ = nullptr;
  std::uint64_t* ctr_alpha_cold_ = nullptr;
  std::uint64_t* ctr_lut_hits_ = nullptr;
  std::uint64_t* ctr_lut_fallbacks_ = nullptr;
  std::uint64_t* ctr_hidden_writes_ = nullptr;
  std::uint64_t* ctr_hidden_reads_ = nullptr;
};

}  // namespace wompcm
