// The concrete CodingPolicy implementations (a closed set).
//
// These final classes used to live in coding_policy.cc's anonymous
// namespace; they are public so the composed hot path can monomorphize the
// per-access hooks — coding_dispatch.h switches on CodingKind and calls the
// final class's member through a static_cast, which the compiler resolves
// to a direct (inlinable) call. The virtual CodingPolicy interface remains
// the contract for cold paths (construction, describe, refresh);
// make_coding_policy (coding_policy.h) is still the only way to build one,
// and guarantees kind() matches the dynamic type (kWomWide and kWomHidden
// are both WomCoding).
#pragma once

#include <stdexcept>
#include <vector>

#include "arch/coding_policy.h"

namespace wompcm {

// Conventional PCM: every write almost surely needs SET pulses somewhere in
// the line, so it completes at the full row-write latency.
class RawCoding final : public CodingPolicy {
 public:
  using CodingPolicy::CodingPolicy;

  CodingKind kind() const override { return CodingKind::kRaw; }
  double overhead() const override { return 0.0; }

  WriteBegin begin_write(std::uint64_t, unsigned, IssuePlan* p) override {
    p->write_class = WriteClass::kAlpha;
    p->program_ns = ctx_.timing->row_write_ns;
    return {WriteClass::kAlpha, false};
  }

  bool finish_write(const WriteBegin&, bool, std::uint64_t,
                    std::uint64_t wear_key, unsigned line, bool internal,
                    IssuePlan*) override {
    if (internal) {
      bump(ctr_victim_, "writes.victim");
    } else {
      bump(ctr_slow_, "writes.slow");
    }
    ctx_.energy->on_write(WriteClass::kAlpha, ctx_.line_bits);
    // A conventional bit-alterable write flips about half the cells.
    ctx_.wear->on_write_pulses(wear_key, line, kResetOnlyWearPerCell);
    return false;
  }

  void read_energy(IssuePlan*) override {
    ctx_.energy->on_read(ctx_.line_bits);
  }

 private:
  std::uint64_t* ctr_slow_ = nullptr;
};

// Hypothetical symmetric-write memory: SET as fast as RESET (S = 1), the
// latency upper bound every WOM scheme chases.
class SymmetricCoding final : public CodingPolicy {
 public:
  using CodingPolicy::CodingPolicy;

  CodingKind kind() const override { return CodingKind::kSymmetric; }
  double overhead() const override { return 0.0; }

  WriteBegin begin_write(std::uint64_t, unsigned, IssuePlan* p) override {
    p->write_class = WriteClass::kResetOnly;
    p->program_ns = ctx_.timing->reset_ns;
    return {WriteClass::kResetOnly, false};
  }

  bool finish_write(const WriteBegin&, bool, std::uint64_t,
                    std::uint64_t wear_key, unsigned line, bool internal,
                    IssuePlan* p) override {
    if (internal) {
      bump(ctr_victim_, "writes.victim");
    } else {
      bump(ctr_fast_, "writes.fast");
    }
    // Post-fault class: a demoted write is charged at the alpha rate.
    ctx_.energy->on_write(p->write_class, ctx_.line_bits);
    ctx_.wear->on_write_pulses(wear_key, line, kResetOnlyWearPerCell);
    return false;
  }

  void read_energy(IssuePlan*) override {
    ctx_.energy->on_read(ctx_.line_bits);
  }

 private:
  std::uint64_t* ctr_fast_ = nullptr;
};

// Flip-N-Write (Cho & Lee, MICRO 2009): at most half the bits programmed
// per write, but RESET-latency completion only when the chosen encoding
// needs no SET pulse anywhere — an explicit probability here, since the
// timing model carries no data payloads.
class FnwCoding final : public CodingPolicy {
 public:
  FnwCoding(const RegionContext& ctx, double fast_fraction, std::uint64_t seed)
      : CodingPolicy(ctx), fast_fraction_(fast_fraction) {
    // One generator per channel, so the fast/slow draw sequence each
    // channel sees depends only on that channel's own write order — not on
    // cross-channel interleaving (the sharded-run determinism contract,
    // mirroring FaultModel's per-channel event streams). Channel 0 seeds
    // exactly as the single shared generator used to, keeping
    // single-channel runs bit-identical.
    rngs_.reserve(ctx.channels == 0 ? 1 : ctx.channels);
    for (unsigned c = 0; c < (ctx.channels == 0 ? 1 : ctx.channels); ++c) {
      rngs_.emplace_back(seed ^ (0x9e3779b97f4a7c15ULL * c));
    }
  }

  CodingKind kind() const override { return CodingKind::kFlipNWrite; }
  // One flip bit per data word.
  double overhead() const override { return 1.0 / 64.0; }

  WriteBegin begin_write(std::uint64_t, unsigned, IssuePlan* p) override {
    Rng& rng = rngs_[active_channel()];
    const bool fast = fast_fraction_ > 0.0 && rng.next_bool(fast_fraction_);
    p->write_class = fast ? WriteClass::kResetOnly : WriteClass::kAlpha;
    p->program_ns = ctx_.timing->program_ns(p->write_class);
    return {p->write_class, false};
  }

  bool finish_write(const WriteBegin& rec, bool, std::uint64_t,
                    std::uint64_t wear_key, unsigned line, bool internal,
                    IssuePlan* p) override {
    if (internal) {
      bump(ctr_victim_, "writes.victim");
    } else if (rec.cls == WriteClass::kResetOnly) {
      bump(ctr_fast_, "writes.fast");
    } else {
      bump(ctr_slow_, "writes.slow");
    }
    // Flip-N-Write programs at most half the line's bits.
    ctx_.energy->on_write(p->write_class, ctx_.line_bits / 2);
    ctx_.wear->on_write_pulses(wear_key, line, kResetOnlyWearPerCell / 2);
    return false;
  }

  void read_energy(IssuePlan*) override {
    ctx_.energy->on_read(ctx_.line_bits);
  }

 private:
  double fast_fraction_;
  std::vector<Rng> rngs_;  // one per channel, indexed by active_channel()
  std::uint64_t* ctr_fast_ = nullptr;
  std::uint64_t* ctr_slow_ = nullptr;
};

// Inverted WOM-code region (Section 3.1): rewrites within the code's budget
// are RESET-only; a row at the limit takes the alpha-write. The hidden-page
// organization pays a dependent second access per demand read and write.
//
// One class serves all four WOM kinds, with one tracker slot per line. The
// sectioned kinds (polar, ts-constrained) split a line into several
// codewords, but a line write advances all of them, alpha re-initializes
// all of them, and a refresh erases the whole row, so the sections of a
// line always share its generation: the line's slot classifies them all.
class WomCoding final : public CodingPolicy {
 public:
  WomCoding(const RegionContext& ctx, CodingKind kind, RegionCode rc,
            unsigned lines_per_row, bool erased_start)
      : CodingPolicy(ctx),
        kind_(kind),
        code_(std::move(rc.code)),
        name_(std::move(rc.name)),
        data_bits_(rc.data_bits),
        wits_(rc.wits),
        max_writes_(rc.max_writes),
        wear_bound_(rc.wear_bound),
        lut_(rc.lut),
        hidden_(kind == CodingKind::kWomHidden),
        tracker_(rc.max_writes >= 1 ? rc.max_writes : 1, lines_per_row,
                 erased_start) {
    if (!is_wom_coding(kind)) {
      throw std::invalid_argument("WomCoding: non-WOM coding kind");
    }
    if (data_bits_ == 0 || wits_ == 0 || max_writes_ == 0) {
      throw std::invalid_argument("WomCoding: null code");
    }
  }

  CodingKind kind() const override { return kind_; }
  double overhead() const override {
    return static_cast<double>(wits_) / data_bits_ - 1.0;
  }
  const WomCode* code() const override { return code_.get(); }
  const std::string& code_name() const { return name_; }
  const WomStateTracker& tracker() const { return tracker_; }

  WriteBegin begin_write(std::uint64_t track_key, unsigned line,
                         IssuePlan* p) override {
    const auto rec = tracker_.record_write(track_key, line);
    p->write_class = rec.cls;
    p->program_ns = ctx_.timing->program_ns(rec.cls);
    return {rec.cls, rec.cold};
  }

  void note_remap(std::uint64_t track_key, unsigned line) override {
    tracker_.record_write(track_key, line);
  }

  bool finish_write(const WriteBegin& rec, bool demoted,
                    std::uint64_t track_key, std::uint64_t wear_key,
                    unsigned line, bool internal, IssuePlan* p) override {
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
    ctx_.energy->on_write(p->write_class, coded_line_bits());
    if (wear_bound_ == 1.0) {
      ctx_.wear->on_write(wear_key, line, p->write_class);
    } else {
      // A wear-bounded family (time-space constrained) touches at most
      // wear_bound_ of the region's cells per write — scale the per-cell
      // wear rates accordingly.
      ctx_.wear->on_write_pulses(
          wear_key, line,
          (p->write_class == WriteClass::kResetOnly ? kResetOnlyWearPerCell
                                                    : kAlphaWearPerCell) *
              wear_bound_);
    }
    if (hidden_) {
      // The upper half-codeword lives in a hidden page the controller
      // reserves in a parallel bank region, so its program overlaps the
      // main one; the cost is the extra command/data transfer plus the
      // tail of the (half-width) hidden program that outlasts the overlap.
      p->post_ns += ctx_.timing->burst_ns() + ctx_.timing->tag_check_ns;
      bump(ctr_hidden_writes_, "hidden_page.extra_writes");
    }
    return tracker_.row_has_limit_lines(track_key);
  }

  void read_energy(IssuePlan*) override {
    ctx_.energy->on_read(coded_line_bits());
  }

  void read_extras(IssuePlan* p) override {
    if (!hidden_) return;
    // Fetch the hidden half-codeword (parallel bank region) before decode:
    // one extra column access plus its burst.
    p->post_ns += ctx_.timing->col_read_ns + ctx_.timing->burst_ns();
    bump(ctr_hidden_reads_, "hidden_page.extra_reads");
  }

  bool refresh_row(std::uint64_t track_key, std::uint64_t wear_key) override {
    if (!tracker_.refresh(track_key)) return false;
    ctx_.energy->on_refresh(coded_line_bits());
    ctx_.wear->on_refresh(wear_key);
    return true;
  }

  bool refreshable() const override { return true; }

 private:
  // Coded bits programmed per line write, for the energy model.
  std::uint64_t coded_line_bits() const {
    return ctx_.line_bits * wits_ / data_bits_;
  }

  CodingKind kind_;
  WomCodePtr code_;  // symbol code behind the classic kinds; may be null
  std::string name_;
  unsigned data_bits_;
  unsigned wits_;
  unsigned max_writes_;
  double wear_bound_;
  bool lut_;
  bool hidden_;
  WomStateTracker tracker_;
  std::uint64_t* ctr_alpha_ = nullptr;
  std::uint64_t* ctr_alpha_cold_ = nullptr;
  std::uint64_t* ctr_fast_ = nullptr;
  std::uint64_t* ctr_lut_hits_ = nullptr;
  std::uint64_t* ctr_lut_fallbacks_ = nullptr;
  std::uint64_t* ctr_hidden_writes_ = nullptr;
  std::uint64_t* ctr_hidden_reads_ = nullptr;
};

}  // namespace wompcm
