// Synthetic workload generation.
//
// Substitutes for the paper's Pin-captured SPEC CPU2006 / MiBench / SPLASH-2
// traces (which cannot be redistributed). Each benchmark is modelled by a
// WorkloadProfile capturing the aggregate statistics the WOM architectures
// are sensitive to:
//   - footprint_pages / zipf skews  -> row rewrite locality (WOM fast-path
//     frequency, RAT capture, WOM-cache conflicts)
//   - write_fraction                -> read/write mix
//   - burst shape + idle gaps       -> memory intensity and the idle-rank
//     windows PCM-refresh exploits
//
// Generation model: accesses come in bursts. A burst starts after an
// exponentially distributed idle gap, runs for a geometrically distributed
// number of accesses separated by intra_gap_ns, and tends to stay on the
// current page (stay_prob) advancing sequentially through its lines;
// otherwise a new page is drawn from a Zipf distribution (a separate skew
// for reads and writes). Pages are striped across ranks and banks, rows
// within a bank, so locality in page space maps to row-level rewrite
// locality without hot-spotting a single bank.
#pragma once

#include <string>

#include "common/address.h"
#include "common/rng.h"
#include "trace/trace.h"

namespace wompcm {

struct WorkloadProfile {
  std::string name;
  std::string suite;  // "spec-int", "spec-fp", "mibench", "splash2"

  double write_fraction = 0.3;
  std::uint64_t footprint_pages = 16384;  // distinct rows touched
  double write_zipf = 0.9;                // Zipf skew of write pages
  double read_zipf = 0.7;                 // Zipf skew of read pages
  double line_zipf = 0.8;  // Zipf skew of the line chosen within a page
  double stay_prob = 0.5;      // stay on the current page next access
  double burst_len_mean = 12;  // mean accesses per burst
  Tick intra_gap_ns = 40;      // spacing inside a burst
  Tick idle_gap_mean_ns = 800;  // mean idle gap between bursts

  // Rewrite locality: fraction of writes that target a recently written
  // line (a later write-back of the same cache line). This is the knob the
  // WOM fast path responds to.
  double rewrite_frac = 0.5;
  // Fraction of reads that target a recently written line (what the
  // write-allocated WOM-cache can serve).
  double read_write_affinity = 0.3;
  // Size of the recently-written-lines ring the two fractions draw from;
  // sets the typical time gap between a write and its rewrite (cache
  // residency time before a line is written back again).
  unsigned history_depth = 16384;
  // Fraction of pages placed physically *sequentially* (bank-first
  // interleaving, the paper's row:rank:bank:col layout): within such a
  // cluster every banks_per_rank consecutive pages share a (rank, row)
  // coordinate — the WOM-cache conflict sets whose degree grows with
  // banks/rank (Fig. 6). The remaining pages are hash-placed (an OS
  // allocator's shuffled frames), which is conflict-free in practice.
  double cluster_frac = 0.20;
  // Pages per sequential cluster.
  unsigned cluster_pages = 64;
  // Concurrent access streams (the core/LLC's memory-level parallelism):
  // each access continues one of this many independent page walks, so
  // several hot pages — and hence several banks — are in flight at once.
  unsigned mlp_streams = 4;

  bool valid(std::string* why = nullptr) const;
};

class SyntheticTraceSource final : public TraceSource {
 public:
  SyntheticTraceSource(const WorkloadProfile& profile,
                       const MemoryGeometry& geom, std::uint64_t seed,
                       std::uint64_t num_accesses);

  std::size_t next_block(TraceRecord* out, std::size_t max) override;

 private:
  struct PageLine {
    std::uint64_t page;
    unsigned line;
  };

  void generate(TraceRecord& rec);
  DecodedAddr place(std::uint64_t page, unsigned line) const;
  PageLine pick_fresh(bool is_write);
  void remember_write(const PageLine& pl);

  WorkloadProfile profile_;
  MemoryGeometry geom_;
  Rng rng_;
  std::uint64_t placement_salt_;  // seed-derived: distinct streams (cores)
                                  // occupy distinct physical pages
  ZipfSampler write_pages_;
  ZipfSampler read_pages_;
  ZipfSampler lines_;
  std::uint64_t remaining_;
  std::uint64_t burst_left_ = 0;
  bool first_ = true;
  std::vector<PageLine> streams_;       // one page walk per MLP stream
  std::vector<bool> stream_started_;
  std::vector<PageLine> history_;
  std::size_t history_pos_ = 0;
};

}  // namespace wompcm
