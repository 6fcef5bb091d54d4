#include "arch/composed.h"

#include "arch/coding_dispatch.h"

namespace wompcm {

ComposedArchitecture::ComposedArchitecture(const MemoryGeometry& geom,
                                           const PcmTiming& timing,
                                           const ArchConfig& cfg)
    : Architecture(geom, timing), comp_(validate_composition(cfg.composition)) {
  // Resolve each WOM-coded region's code (main.code= / cache.code=
  // override, else the shared legacy code= key or the family default). A
  // raw/fnw composition must build even with an unresolvable cfg.code,
  // exactly as the monolithic classes ignored it — resolve_region_code
  // returns an empty RegionCode for the non-WOM kinds without looking at
  // the name.
  RegionCode main_rc = resolve_region_code(comp_.main_coding, cfg.main_code,
                                           cfg.code, line_bits());
  RegionCode cache_rc;
  if (comp_.cache_enabled) {
    cache_rc = resolve_region_code(comp_.cache_coding, cfg.cache_code,
                                   cfg.code, line_bits());
  }
  main_code_name_ = main_rc.name;
  cache_code_name_ = cache_rc.name;
  code_ = main_rc.code != nullptr ? main_rc.code : cache_rc.code;
  RegionContext ctx{&timing_, &counters_, &energy_, &wear_, line_bits()};
  ctx.channel = &active_channel_;
  ctx.channels = geom.channels;
  main_coding_ = make_coding_policy(comp_.main_coding, ctx,
                                    std::move(main_rc), geom.lines_per_row(),
                                    /*erased_start=*/false,
                                    cfg.fnw_fast_fraction, cfg.seed);
  if (comp_.cache_enabled) {
    // The cache's small array is formatted at boot and cycles through
    // refresh continuously, so its untouched rows start erased.
    cache_ = std::make_unique<CacheLayer>(
        geom, make_coding_policy(comp_.cache_coding, ctx, std::move(cache_rc),
                                 geom.lines_per_row(), /*erased_start=*/true,
                                 cfg.fnw_fast_fraction, cfg.seed));
  }
  if (comp_.refresh == RefreshKind::kRat) {
    // A RAT attaches to each region whose coding has refreshable
    // generation state (validate_composition guarantees at least one).
    if (main_coding_->refreshable()) {
      // Serve the most recently recorded row first: it is the hottest and
      // the most likely to take its alpha-write soon.
      main_rat_ = std::make_unique<RatRefreshPolicy>(
          main_banks(), cfg.rat_entries, RatRefreshPolicy::ServeOrder::kNewestFirst,
          &counters_);
    }
    if (cache_ != nullptr && cache_->coding().refreshable()) {
      // The cache array cycles continuously through refresh, so its RAT
      // drains in insertion order.
      cache_rat_ = std::make_unique<RatRefreshPolicy>(
          geom.channels * geom.ranks, cfg.rat_entries,
          RatRefreshPolicy::ServeOrder::kOldestFirst, &counters_);
    }
  }
}

std::string ComposedArchitecture::name() const {
  // The paper's designs keep the names every config, bench and plot
  // already uses.
  const char* org = comp_.main_coding == CodingKind::kWomHidden
                        ? to_string(WomOrganization::kHiddenPage)
                        : to_string(WomOrganization::kWideColumn);
  // The legacy one-region names belong to the classic whole-line kinds; the
  // sectioned families (polar, ts-constrained) always spell themselves out.
  const bool classic_main = comp_.main_coding == CodingKind::kWomWide ||
                            comp_.main_coding == CodingKind::kWomHidden;
  if (cache_ == nullptr) {
    if (comp_.refresh == RefreshKind::kNone) {
      switch (comp_.main_coding) {
        case CodingKind::kRaw:
          return "pcm";
        case CodingKind::kFlipNWrite:
          return "flip-n-write";
        case CodingKind::kSymmetric:
          return "symmetric-ideal";
        case CodingKind::kWomWide:
        case CodingKind::kWomHidden:
          return std::string("wom-pcm[") + main_code_name_ + "," + org + "]";
        case CodingKind::kPolar:
        case CodingKind::kTsConstrained:
          break;
      }
    } else if (classic_main) {
      return std::string("pcm-refresh[") + main_code_name_ + "," + org + "]";
    }
  } else if (comp_ == Composition{CodingKind::kRaw, true, CodingKind::kWomWide,
                                  RefreshKind::kRat}) {
    return std::string("wcpcm[") + cache_code_name_ + "]";
  }
  // Novel compositions spell themselves out.
  std::string s = std::string("composed[main=") + to_string(comp_.main_coding);
  if (cache_ != nullptr) {
    s += std::string(",cache=") + to_string(comp_.cache_coding);
  }
  s += std::string(",refresh=") + to_string(comp_.refresh);
  const bool main_wom = is_wom_coding(comp_.main_coding);
  const bool cache_wom =
      cache_ != nullptr && is_wom_coding(comp_.cache_coding);
  if (main_wom && cache_wom && main_code_name_ != cache_code_name_) {
    s += ",main.code=" + main_code_name_ + ",cache.code=" + cache_code_name_;
  } else if (main_wom || cache_wom) {
    s += ",code=" + (main_wom ? main_code_name_ : cache_code_name_);
  }
  s += "]";
  return s;
}

unsigned ComposedArchitecture::num_resources() const {
  return main_banks() + (cache_ == nullptr ? 0 : cache_->arrays());
}

unsigned ComposedArchitecture::resource_channel(unsigned resource) const {
  if (resource < main_banks()) return Architecture::resource_channel(resource);
  // Cache arrays are appended channel-major by rank (see CacheLayer::index).
  return (resource - main_banks()) / geom_.ranks;
}

unsigned ComposedArchitecture::route(const DecodedAddr& dec, AccessType type,
                                     bool internal) const {
  if (cache_ == nullptr) return flat_bank(dec);
  if (internal) return flat_bank(dec);  // victim write-back to main memory
  if (type == AccessType::kWrite) {
    return main_banks() + cache_->index(dec.channel, dec.rank);
  }
  // Reads probe cache and main memory in parallel; a hit is served by the
  // cache array, a miss by the main bank.
  return cache_->probe_read_hit(dec)
             ? main_banks() + cache_->index(dec.channel, dec.rank)
             : flat_bank(dec);
}

IssuePlan ComposedArchitecture::plan_main_write(const DecodedAddr& dec,
                                                bool internal, IssuePlan p) {
  std::uint64_t key = row_key_for(p.resource, p.row);
  const CodingPolicy::WriteBegin rec =
      coding_begin_write(comp_.main_coding, *main_coding_, key, dec.col, &p);
  const FaultOutcome f =
      fault_on_write(p.resource, dec.channel, dec.col, /*allow_remap=*/true,
                     &p);
  if (f.remapped) {
    // The row moved to a fresh spare: start its generation there so the
    // rewrite budget tracks the cells actually being programmed.
    key = row_key_for(p.resource, p.row);
    coding_note_remap(comp_.main_coding, *main_coding_, key, dec.col);
  }
  const bool at_limit =
      coding_finish_write(comp_.main_coding, *main_coding_, rec, f.demoted,
                          key, key, dec.col, internal, &p);
  if (at_limit && main_rat_ != nullptr) main_rat_->touch(p.resource, key);
  return p;
}

IssuePlan ComposedArchitecture::plan_cache_write(const DecodedAddr& dec,
                                                 IssuePlan p) {
  const unsigned ci = cache_->index(dec.channel, dec.rank);
  p.resource = main_banks() + ci;
  p.pre_ns += timing_.tag_check_ns;
  if (faults_enabled() && cache_->row_dead(ci, dec.row)) {
    // The cache row was retired: the line is latched into the write
    // register (tag check only, no cell programming) and forwarded to PCM
    // main memory as an internal write.
    p.spawned.push_back(SpawnedWrite{dec});
    bump(ctr_bypass_writes_, "wcpcm.bypass_writes");
    return p;
  }
  const bool occupied = cache_->valid(ci, dec.row);
  const unsigned occupant = cache_->installed_bank(ci, dec.row);
  const bool hit = !occupied || occupant == dec.bank;
  // The mutations below change some queued read's probe outcome exactly
  // when the entry is installed, re-banked, or gains a new valid line; a
  // re-write of an already-valid line leaves every probe unchanged.
  if (!occupied || occupant != dec.bank ||
      !cache_->line_set(ci, dec.row, dec.col)) {
    cache_->note_route_change();
  }
  if (hit) {
    bump(ctr_write_hits_, "wcpcm.write_hits");
  } else {
    bump(ctr_write_misses_, "wcpcm.write_misses");
    // Read the victim row out to the register, then hand it to the
    // main-memory write queue; the new install starts with only the
    // written line valid.
    p.pre_ns += timing_.row_read_ns;
    DecodedAddr victim = dec;
    victim.bank = occupant;
    p.spawned.push_back(SpawnedWrite{victim});
    bump(ctr_victims_, "wcpcm.victims");
    cache_->evict_lines(ci, dec.row);
  }
  const std::uint64_t track_key = cache_->row_key(ci, dec.row);
  CodingPolicy& coding = cache_->coding();
  const CodingPolicy::WriteBegin rec =
      coding_begin_write(comp_.cache_coding, coding, track_key, dec.col, &p);
  // No spare pool behind the cache array: a dead verdict is handled below
  // by invalidate-and-bypass.
  const FaultOutcome f = fault_on_write(main_banks() + ci, dec.channel,
                                        dec.col, /*allow_remap=*/false, &p);
  const bool at_limit =
      coding_finish_write(comp_.cache_coding, coding, rec, f.demoted,
                          track_key, cache_wear_key(ci, dec.row), dec.col,
                          /*internal=*/false, &p);
  if (f.dead_unmapped) {
    // The row can no longer be programmed reliably: retire it from cache
    // service. A miss already flushed the previous occupant; on a hit the
    // bypass write below refreshes the same main-memory row, so the entry
    // is invalidated outright and the demand line re-queued to main. The
    // dead set makes every later write bypass before touching the tags.
    cache_->note_route_change();  // invalidation can flip a queued probe
    cache_->invalidate(ci, dec.row);
    cache_->mark_dead(ci, dec.row);
    bump(ctr_dead_rows_, "wcpcm.dead_rows");
    p.spawned.push_back(SpawnedWrite{dec});
    bump(ctr_bypass_writes_, "wcpcm.bypass_writes");
    return p;
  }
  if (at_limit && cache_rat_ != nullptr) cache_rat_->touch(ci, dec.row);
  cache_->install(ci, dec.row, dec.bank, dec.col);
  return p;
}

IssuePlan ComposedArchitecture::plan(const DecodedAddr& dec, AccessType type,
                                     bool internal, Tick now) {
  (void)now;
  // Key every per-channel accounting stream for this access (see the
  // active_channel_ declaration).
  active_channel_ = dec.channel;
  energy_.select_channel(dec.channel);
  IssuePlan p;
  p.row = dec.row;

  if (cache_ != nullptr) {
    if (internal) {
      // Victim write-back (or dead-row bypass) to main memory, through the
      // bank's bad-row chain (never Start-Gap: the cache index is the row
      // address).
      p.resource = flat_bank(dec);
      p.row = resolved_row(p.resource, dec.row);
      return plan_main_write(dec, /*internal=*/true, std::move(p));
    }
    if (type == AccessType::kWrite) {
      return plan_cache_write(dec, std::move(p));
    }
    // Read: parallel probe, tag-comparison penalty either way.
    p.pre_ns += timing_.tag_check_ns;
    if (cache_->probe_read_hit(dec)) {
      bump(ctr_read_hits_, "wcpcm.read_hits");
      p.resource = main_banks() + cache_->index(dec.channel, dec.rank);
      coding_read_energy(comp_.cache_coding, cache_->coding(), &p);
      fault_on_read(dec.channel, &p);
      coding_read_extras(comp_.cache_coding, cache_->coding(), &p);
    } else {
      bump(ctr_read_misses_, "wcpcm.read_misses");
      p.resource = flat_bank(dec);
      p.row = resolved_row(p.resource, dec.row);
      coding_read_energy(comp_.main_coding, *main_coding_, &p);
      fault_on_read(dec.channel, &p);
      coding_read_extras(comp_.main_coding, *main_coding_, &p);
    }
    return p;
  }

  // No cache front end: every access addresses main memory, through wear
  // leveling and the bad-row chain.
  p.resource = flat_bank(dec);
  p.row = physical_row(dec, type, &p);
  if (type == AccessType::kWrite) {
    return plan_main_write(dec, internal, std::move(p));
  }
  bump(ctr_reads_, "reads");
  coding_read_energy(comp_.main_coding, *main_coding_, &p);
  fault_on_read(dec.channel, &p);
  coding_read_extras(comp_.main_coding, *main_coding_, &p);
  return p;
}

double ComposedArchitecture::refresh_pending_fraction(unsigned channel,
                                                      unsigned rank) const {
  unsigned total = 0;
  unsigned pending = 0;
  if (main_rat_ != nullptr) {
    const unsigned base =
        (channel * geom_.ranks + rank) * geom_.banks_per_rank;
    total += geom_.banks_per_rank;
    for (unsigned b = 0; b < geom_.banks_per_rank; ++b) {
      if (main_rat_->pending(base + b)) ++pending;
    }
  }
  if (cache_rat_ != nullptr) {
    total += 1;
    if (cache_rat_->pending(cache_->index(channel, rank))) ++pending;
  }
  return total == 0 ? 0.0
                    : static_cast<double>(pending) / static_cast<double>(total);
}

Architecture::RefreshWork ComposedArchitecture::perform_refresh(
    unsigned channel, unsigned rank,
    const std::function<bool(unsigned)>& unit_ready) {
  RefreshWork work;
  if (main_rat_ == nullptr && cache_rat_ == nullptr) return work;
  // Refresh energy (and any policy draws) charge this rank's channel.
  active_channel_ = channel;
  energy_.select_channel(channel);
  if (main_rat_ != nullptr) {
    const unsigned base =
        (channel * geom_.ranks + rank) * geom_.banks_per_rank;
    for (unsigned b = 0; b < geom_.banks_per_rank; ++b) {
      const unsigned resource = base + b;
      if (!unit_ready(resource)) continue;  // demand in flight: skip the bank
      if (main_rat_->refresh_one(resource, [&](std::uint64_t key) {
            return main_coding_->refresh_row(key, key);
          })) {
        ++work.rows;
        work.resources.push_back(resource);
      }
    }
  }
  if (cache_rat_ != nullptr) {
    // One command streams one pending row of this rank's cache array
    // through the row buffer, mirroring the rank-wide "refresh a page per
    // bank" rule.
    const unsigned resource = cache_resource(channel, rank);
    if (unit_ready(resource)) {
      const unsigned ci = cache_->index(channel, rank);
      if (cache_rat_->refresh_one(ci, [&](std::uint64_t row) {
            const unsigned r = static_cast<unsigned>(row);
            // Retired rows have nothing to refresh.
            if (faults_enabled() && cache_->row_dead(ci, r)) return false;
            return cache_->coding().refresh_row(cache_->row_key(ci, r),
                                                cache_wear_key(ci, r));
          })) {
        ++work.rows;
        work.resources.push_back(resource);
      }
    }
  }
  // Unconditional (by may be 0), matching the original inc()'s key creation.
  bump(ctr_refresh_rows_, "refresh.rows", work.rows);
  return work;
}

std::vector<unsigned> ComposedArchitecture::refresh_resources(
    unsigned channel, unsigned rank) const {
  if (cache_rat_ != nullptr && main_rat_ == nullptr) {
    return {cache_resource(channel, rank)};
  }
  std::vector<unsigned> res = Architecture::refresh_resources(channel, rank);
  if (cache_rat_ != nullptr) res.push_back(cache_resource(channel, rank));
  return res;
}

double ComposedArchitecture::capacity_overhead() const {
  double overhead = main_coding_->overhead();
  if (cache_ != nullptr) {
    // The cache stores one coded bank's worth of rows per rank:
    // (1 + coding overhead) / N_bank of the main capacity.
    overhead += (1.0 + cache_->coding().overhead()) /
                static_cast<double>(geom_.banks_per_rank);
  }
  return overhead;
}

double ComposedArchitecture::write_hit_rate() const {
  const auto h = counters_.get("wcpcm.write_hits");
  const auto m = counters_.get("wcpcm.write_misses");
  return h + m == 0 ? 0.0
                    : static_cast<double>(h) / static_cast<double>(h + m);
}

double ComposedArchitecture::read_hit_rate() const {
  const auto h = counters_.get("wcpcm.read_hits");
  const auto m = counters_.get("wcpcm.read_misses");
  return h + m == 0 ? 0.0
                    : static_cast<double>(h) / static_cast<double>(h + m);
}

}  // namespace wompcm
