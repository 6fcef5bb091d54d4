// Sectioned streaming codec seam.
//
// A BlockCodec encodes, decodes, and classifies one fixed-width *section* of
// a page at a time, with per-section write generations and per-section pulse
// accounting. A page image is a concatenation of equally sized sections; the
// caller (PageCodec, or an architecture's row table of line generations) owns
// the section -> generation map and streams sections through the codec.
//
// Two kinds of implementations exist:
//   - SectionedCodec wraps any WomCode, one symbol per section, and is
//     bit-identical to the historical whole-page symbol loop (it keeps the
//     two-lookup EncodeLut fast path per section).
//   - Native block codes whose structure does not fit the symbol-at-a-time
//     WomCode interface, e.g. the time-space constrained family whose decode
//     is generation-aware (the stored replica depends on the write count).
//
// Sections are independent: writing section s touches image bits
// [s*section_wits(), (s+1)*section_wits()) and nothing else, so per-section
// pulse counts sum to exactly the whole-page transition counts.
//
// write_section is non-const: implementations keep reusable scratch buffers
// as members so the steady state stays allocation-free (enforced by
// womcode_pcm_alloc_tests).
#pragma once

#include <cstddef>
#include <memory>
#include <string>

#include "common/bitvec.h"

namespace wompcm {

// Outcome of one section-level operation: how the write was classed and the
// SET/RESET pulses it cost (the inputs to the energy model).
struct SectionWrite {
  bool alpha = false;            // section was re-initialized first
  std::size_t set_pulses = 0;    // bits driven 0 -> 1 (slow, high energy)
  std::size_t reset_pulses = 0;  // bits driven 1 -> 0 (fast)
};

class BlockCodec {
 public:
  virtual ~BlockCodec() = default;

  virtual std::string name() const = 0;

  // k: data bits stored per section.
  virtual unsigned section_data_bits() const = 0;
  // n: wits occupied per section.
  virtual unsigned section_wits() const = 0;
  // t: guaranteed writes per section before it needs re-initialization.
  virtual unsigned max_writes() const = 0;

  // True if in-budget writes raise bits (conventional WOM); false if they
  // lower bits (inverted, the PCM-friendly direction).
  virtual bool raises_bits() const = 0;

  // True if the section encode runs through a dense EncodeLut (two array
  // lookups); false if it takes the virtual/structural encode path.
  virtual bool lut_backed() const = 0;

  // Fraction of the section's cells an in-budget write may touch, in [0, 1].
  // Time-space constrained codes bound per-cell write frequency, which the
  // fault model consumes as a wear bound; unconstrained codes return 1.
  virtual double wear_bound() const { return 1.0; }

  // Capacity overhead relative to uncoded storage, e.g. 0.5 for <2^2>^2/3.
  double overhead() const {
    return static_cast<double>(section_wits()) / section_data_bits() - 1.0;
  }

  // Re-initializes section `section` of `image` to the erased state and
  // returns the pulses spent (SET-heavy for inverted codes).
  virtual SectionWrite erase_section(BitVec& image,
                                     std::size_t section) const = 0;

  // Writes this section's slice of `data` (bits [section*k, (section+1)*k))
  // into `image` (bits [section*n, (section+1)*n)) as the *generation-th
  // write. If the section is at its rewrite limit (*generation ==
  // max_writes()), it is re-initialized first and the result is an
  // alpha-write. *generation is advanced past the write.
  virtual SectionWrite write_section(BitVec& image, const BitVec& data,
                                     std::size_t section,
                                     unsigned* generation) = 0;

  // Decodes section `section` of `image`, written `generation` >= 1 times
  // since initialization, into bits [section*k, (section+1)*k) of `data`.
  // `data` must already be sized. Decoding may be generation-aware (the
  // time-space constrained family stores the live replica by write count).
  virtual void read_section(const BitVec& image, std::size_t section,
                            unsigned generation, BitVec& data) const = 0;
};

using BlockCodecPtr = std::unique_ptr<BlockCodec>;

}  // namespace wompcm
