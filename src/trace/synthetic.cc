#include "trace/synthetic.h"

#include <algorithm>
#include <stdexcept>

namespace wompcm {

bool WorkloadProfile::valid(std::string* why) const {
  auto fail = [&](const char* msg) {
    if (why != nullptr) *why = msg;
    return false;
  };
  if (name.empty()) return fail("profile needs a name");
  if (write_fraction < 0.0 || write_fraction > 1.0) {
    return fail("write_fraction must be in [0, 1]");
  }
  if (footprint_pages == 0) return fail("footprint must be non-zero");
  if (write_zipf < 0.0 || read_zipf < 0.0 || line_zipf < 0.0) {
    return fail("zipf skews must be >= 0");
  }
  if (stay_prob < 0.0 || stay_prob >= 1.0) {
    return fail("stay_prob must be in [0, 1)");
  }
  if (burst_len_mean < 1.0) return fail("burst_len_mean must be >= 1");
  if (rewrite_frac < 0.0 || rewrite_frac > 1.0 ||
      read_write_affinity < 0.0 || read_write_affinity > 1.0) {
    return fail("locality fractions must be in [0, 1]");
  }
  if (history_depth == 0) return fail("history_depth must be non-zero");
  if (cluster_frac < 0.0 || cluster_frac > 1.0) {
    return fail("cluster_frac must be in [0, 1]");
  }
  if (cluster_pages == 0) return fail("cluster_pages must be non-zero");
  if (mlp_streams == 0) return fail("mlp_streams must be non-zero");
  return true;
}

SyntheticTraceSource::SyntheticTraceSource(const WorkloadProfile& profile,
                                           const MemoryGeometry& geom,
                                           std::uint64_t seed,
                                           std::uint64_t num_accesses)
    : profile_(profile),
      geom_(geom),
      rng_(seed),
      placement_salt_(seed * 0x9e3779b97f4a7c15ULL + 0x1234567),
      write_pages_(profile.footprint_pages, profile.write_zipf),
      read_pages_(profile.footprint_pages, profile.read_zipf),
      lines_(geom.lines_per_row(), profile.line_zipf),
      remaining_(num_accesses) {
  std::string why;
  if (!profile_.valid(&why)) {
    throw std::invalid_argument("bad workload profile: " + why);
  }
  history_.reserve(profile_.history_depth);
  streams_.assign(profile_.mlp_streams, PageLine{0, 0});
  stream_started_.assign(profile_.mlp_streams, false);
}

namespace {

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

DecodedAddr SyntheticTraceSource::place(std::uint64_t page,
                                        unsigned line) const {
  const MemoryGeometry& g = geom_;
  DecodedAddr d;
  d.col = line % g.lines_per_row();

  // The sequential-vs-hashed decision is a pure function of the cluster
  // index (NOT the per-stream salt): whether the hottest clusters are
  // sequential is part of the workload's character and must not vary
  // between seeds. Only the *locations* are salted, so separate streams
  // (cores) occupy separate physical pages.
  const std::uint64_t cluster = page / profile_.cluster_pages;
  const std::uint64_t h = splitmix(cluster);
  if (static_cast<double>(h % 1024) <
      profile_.cluster_frac * 1024.0) {
    // Sequentially allocated cluster: the paper's row:rank:bank:col layout
    // fills every bank of a rank-row before moving on, so neighbouring
    // pages share a (rank, row) across different banks. The cluster's base
    // slot is spread pseudo-randomly over the array.
    const std::uint64_t slots = static_cast<std::uint64_t>(g.channels) *
                                g.ranks * g.banks_per_rank *
                                g.rows_per_bank;
    const std::uint64_t base =
        (splitmix(h ^ placement_salt_) % (slots / profile_.cluster_pages)) *
        profile_.cluster_pages;
    const std::uint64_t p = base + page % profile_.cluster_pages;
    d.bank = static_cast<unsigned>(p % g.banks_per_rank);
    std::uint64_t rest = p / g.banks_per_rank;
    d.rank = static_cast<unsigned>(rest % g.ranks);
    rest /= g.ranks;
    d.channel = static_cast<unsigned>(rest % g.channels);
    rest /= g.channels;
    d.row = static_cast<unsigned>(rest % g.rows_per_bank);
  } else {
    // Hash-placed page: shuffled OS frames, conflict-free in practice.
    const std::uint64_t hp =
        splitmix(page ^ placement_salt_ ^ 0xabcdef123456ULL);
    d.bank = static_cast<unsigned>(hp % g.banks_per_rank);
    d.rank = static_cast<unsigned>((hp >> 16) % g.ranks);
    d.channel = static_cast<unsigned>((hp >> 24) % g.channels);
    d.row = static_cast<unsigned>((hp >> 32) % g.rows_per_bank);
  }
  return d;
}

SyntheticTraceSource::PageLine SyntheticTraceSource::pick_fresh(
    bool is_write) {
  PageLine pl;
  pl.page = is_write ? write_pages_.sample(rng_) : read_pages_.sample(rng_);
  pl.line = static_cast<unsigned>(lines_.sample(rng_));
  return pl;
}

void SyntheticTraceSource::remember_write(const PageLine& pl) {
  if (history_.size() < profile_.history_depth) {
    history_.push_back(pl);
    return;
  }
  history_[history_pos_] = pl;
  history_pos_ = (history_pos_ + 1) % history_.size();
}

std::size_t SyntheticTraceSource::next_block(TraceRecord* out,
                                             std::size_t max) {
  const std::size_t n =
      static_cast<std::size_t>(std::min<std::uint64_t>(max, remaining_));
  for (std::size_t i = 0; i < n; ++i) generate(out[i]);
  remaining_ -= n;
  return n;
}

void SyntheticTraceSource::generate(TraceRecord& rec) {
  const bool is_write = rng_.next_bool(profile_.write_fraction);
  rec.type = is_write ? AccessType::kWrite : AccessType::kRead;

  // Timing: bursts separated by exponentially distributed idle gaps.
  bool new_burst = false;
  if (burst_left_ == 0) {
    new_burst = true;
    rec.gap = first_ ? 0
                     : profile_.intra_gap_ns +
                           rng_.next_exponential(static_cast<double>(
                               profile_.idle_gap_mean_ns));
    burst_left_ = 1 + rng_.next_exponential(profile_.burst_len_mean - 1.0);
  } else {
    rec.gap = profile_.intra_gap_ns;
  }
  --burst_left_;
  first_ = false;

  // Location: rewrite locality first (a later write-back of a recently
  // written line, or a read of one), then burst continuity (sequential walk
  // within the current page), then a fresh Zipf draw.
  // Location. Each access continues one of mlp_streams independent page
  // walks (the core keeps several misses in flight at once). Intra-burst
  // locality comes first: a stream walks the lines of its current page (so
  // its reads genuinely collide with its writes at that bank, like an LLC
  // miss+writeback stream over a hot row). When a stream jumps, it lands on
  // a recently written line with probability reuse_frac (rewrite locality /
  // read-around-write affinity) and on a fresh Zipf draw otherwise.
  const double reuse_frac =
      is_write ? profile_.rewrite_frac : profile_.read_write_affinity;
  const std::size_t s =
      static_cast<std::size_t>(rng_.next_below(streams_.size()));
  PageLine& cur = streams_[s];
  bool fresh = false;
  if (!new_burst && stream_started_[s] &&
      rng_.next_bool(profile_.stay_prob)) {
    ++cur.line;  // sequential walk within the page
    fresh = is_write;
  } else if (!history_.empty() && rng_.next_bool(reuse_frac)) {
    const PageLine& pl = history_[rng_.next_below(history_.size())];
    cur.page = pl.page;
    // Writes re-write the exact line (a later write-back of the same cache
    // line); affinity reads fetch *around* it — another line of the same
    // row — so they contend with the row's writes at the bank instead of
    // being satisfied by write-to-read forwarding.
    cur.line =
        is_write ? pl.line : static_cast<unsigned>(lines_.sample(rng_));
  } else {
    cur = pick_fresh(is_write);
    fresh = true;
  }
  stream_started_[s] = true;
  const unsigned line = cur.line % geom_.lines_per_row();
  // Only fresh locations enter the reuse history: re-inserting sampled
  // rewrites would turn the ring into a preferential-attachment loop that
  // concentrates the whole stream onto a handful of lines.
  if (is_write && fresh) remember_write({cur.page, line});

  rec.dec = place(cur.page, line);
}

}  // namespace wompcm
