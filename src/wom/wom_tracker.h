// WOM write-generation tracking for the timing simulator.
//
// Encoding is per column (Section 3.1: "memory data is encoded in the unit
// of a column"), so each burst-sized line of a row carries its own n-wit
// codeword and its own rewrite budget; PCM-refresh re-initializes a whole
// row at once (Section 3.2). The controller only needs each line's
// *generation* to classify a write as RESET-only (fast) or alpha (slow):
// the inverted code makes the classification data independent.
//
// Sectioned codes (polar, time-space constrained) split a line into several
// codewords, but every write, remap and refresh touches all of a line's
// sections together, so they always share one generation: the tracker keeps
// one per line for every code.
//
// Line generation semantics (t = code rewrite limit):
//   unknown      : never written since power-on. The array state is
//                  arbitrary, so the first write needs SET pulses -> alpha.
//   gen 0        : erased by PCM-refresh; next write is RESET-only.
//   0 < gen < t  : in budget; next write is RESET-only.
//   gen == t     : at the rewrite limit; the next write is the alpha-write,
//                  which re-initializes the codeword and leaves it at gen 1.
//
// Rows are tracked lazily in a hash map keyed by a flat row id.
#pragma once

#include <cstdint>
#include <vector>

#include "common/flat_map.h"
#include "common/types.h"

namespace wompcm {

class WomStateTracker {
 public:
  // erased_start: lines of untouched rows count as erased (generation 0)
  // rather than unknown. Used for the WOM-cache, whose small array is
  // formatted at boot and cycles through refresh continuously; main-memory
  // trackers keep the conservative unknown-start semantics.
  WomStateTracker(unsigned max_writes, unsigned lines_per_row,
                  bool erased_start = false);

  unsigned max_writes() const { return t_; }
  unsigned lines_per_row() const { return lines_; }

  struct WriteRecord {
    WriteClass cls = WriteClass::kResetOnly;
    bool cold = false;  // alpha on a never-touched line (not refreshable)
  };

  // Records a demand write to line `line` of `row` and returns its class.
  WriteRecord record_write(RowKey row, unsigned line);

  // Classifies what the next write to (row, line) would be, without
  // recording it.
  WriteClass peek_write(RowKey row, unsigned line) const;

  // Generation of one line; kUnknownGen if never written nor refreshed.
  static constexpr unsigned kUnknownGen = 0xFF;
  unsigned generation(RowKey row, unsigned line) const;

  // True if any line of `row` is at the rewrite limit (the row belongs in
  // the refresh row-address table).
  bool row_has_limit_lines(RowKey row) const;

  // PCM-refresh: pre-erases every codeword of the row so subsequent writes
  // take the RESET-only path. Returns true if the row still had lines at
  // the rewrite limit (i.e. the refresh was useful).
  bool refresh(RowKey row);

  // Statistics.
  std::uint64_t writes() const { return writes_; }
  std::uint64_t alpha_writes() const { return alpha_writes_; }
  std::uint64_t cold_alpha_writes() const { return cold_alpha_writes_; }
  std::uint64_t refreshes() const { return refreshes_; }
  std::size_t tracked_rows() const { return rows_.size(); }

 private:
  // Per-row state lives in parallel slab arrays indexed by a 1-based slab
  // id (the row index map's default 0 means "no state yet"): generations
  // are lines_ contiguous bytes in gen_, the at-limit line count a single
  // entry in at_limit_. One hash probe per operation; a refresh resets the
  // row with one sequential fill.
  std::size_t slab_id(RowKey row);  // allocates on first touch
  std::uint8_t* gen_slab(std::size_t id) {
    return gen_.data() + (id - 1) * lines_;
  }
  const std::uint8_t* gen_slab(std::size_t id) const {
    return gen_.data() + (id - 1) * lines_;
  }

  unsigned t_;
  unsigned lines_;
  bool erased_start_;
  FlatMap64<std::uint32_t> rows_;     // row key -> 1-based slab id
  std::vector<std::uint8_t> gen_;     // slabs of lines_ generations
  std::vector<unsigned> at_limit_;    // per slab: lines at generation t
  std::uint64_t writes_ = 0;
  std::uint64_t alpha_writes_ = 0;
  std::uint64_t cold_alpha_writes_ = 0;
  std::uint64_t refreshes_ = 0;
};

}  // namespace wompcm
