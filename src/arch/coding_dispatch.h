// Monomorphized per-access dispatch over the closed CodingPolicy set.
//
// The composed hot path calls every per-access hook (begin_write,
// note_remap, finish_write, read_energy, read_extras) through these inline
// helpers: a switch on the CodingKind the composition already stores plus a
// static_cast to the final concrete class, which the compiler resolves to a
// direct, inlinable call instead of a vtable load per access. Cold paths
// (construction, describe, refresh) keep the virtual interface.
//
// The cast is sound because make_coding_policy is the only way to build a
// policy and guarantees the kind <-> dynamic-type mapping (kWomWide and
// kWomHidden are both WomCoding). The dispatch-equivalence suite
// (tests/test_dispatch_equivalence.cc) checks these helpers against the
// virtual calls hook-for-hook.
#pragma once

#include "arch/coding_policies.h"

namespace wompcm {

inline CodingPolicy::WriteBegin coding_begin_write(CodingKind kind,
                                                   CodingPolicy& pol,
                                                   std::uint64_t track_key,
                                                   unsigned line,
                                                   IssuePlan* p) {
  switch (kind) {
    case CodingKind::kRaw:
      return static_cast<RawCoding&>(pol).begin_write(track_key, line, p);
    case CodingKind::kSymmetric:
      return static_cast<SymmetricCoding&>(pol).begin_write(track_key, line,
                                                            p);
    case CodingKind::kFlipNWrite:
      return static_cast<FnwCoding&>(pol).begin_write(track_key, line, p);
    case CodingKind::kWomWide:
    case CodingKind::kWomHidden:
    case CodingKind::kPolar:
    case CodingKind::kTsConstrained:
      return static_cast<WomCoding&>(pol).begin_write(track_key, line, p);
  }
  return pol.begin_write(track_key, line, p);  // unreachable
}

inline void coding_note_remap(CodingKind kind, CodingPolicy& pol,
                              std::uint64_t track_key, unsigned line) {
  // Only the WOM tracker has remap state; the others inherit the no-op.
  if (is_wom_coding(kind)) {
    static_cast<WomCoding&>(pol).note_remap(track_key, line);
  }
}

inline bool coding_finish_write(CodingKind kind, CodingPolicy& pol,
                                const CodingPolicy::WriteBegin& rec,
                                bool demoted, std::uint64_t track_key,
                                std::uint64_t wear_key, unsigned line,
                                bool internal, IssuePlan* p) {
  switch (kind) {
    case CodingKind::kRaw:
      return static_cast<RawCoding&>(pol).finish_write(
          rec, demoted, track_key, wear_key, line, internal, p);
    case CodingKind::kSymmetric:
      return static_cast<SymmetricCoding&>(pol).finish_write(
          rec, demoted, track_key, wear_key, line, internal, p);
    case CodingKind::kFlipNWrite:
      return static_cast<FnwCoding&>(pol).finish_write(
          rec, demoted, track_key, wear_key, line, internal, p);
    case CodingKind::kWomWide:
    case CodingKind::kWomHidden:
    case CodingKind::kPolar:
    case CodingKind::kTsConstrained:
      return static_cast<WomCoding&>(pol).finish_write(
          rec, demoted, track_key, wear_key, line, internal, p);
  }
  return pol.finish_write(rec, demoted, track_key, wear_key, line, internal,
                          p);  // unreachable
}

inline void coding_read_energy(CodingKind kind, CodingPolicy& pol,
                               IssuePlan* p) {
  switch (kind) {
    case CodingKind::kRaw:
      static_cast<RawCoding&>(pol).read_energy(p);
      return;
    case CodingKind::kSymmetric:
      static_cast<SymmetricCoding&>(pol).read_energy(p);
      return;
    case CodingKind::kFlipNWrite:
      static_cast<FnwCoding&>(pol).read_energy(p);
      return;
    case CodingKind::kWomWide:
    case CodingKind::kWomHidden:
    case CodingKind::kPolar:
    case CodingKind::kTsConstrained:
      static_cast<WomCoding&>(pol).read_energy(p);
      return;
  }
  pol.read_energy(p);  // unreachable
}

inline void coding_read_extras(CodingKind kind, CodingPolicy& pol,
                               IssuePlan* p) {
  // Only the hidden-page organization adds read extras (WomCoding's hook
  // early-returns for the non-hidden WOM kinds); the others inherit the
  // no-op.
  if (is_wom_coding(kind)) {
    static_cast<WomCoding&>(pol).read_extras(p);
  }
}

}  // namespace wompcm
