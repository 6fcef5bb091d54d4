#include "arch/arch.h"

#include <stdexcept>

#include "arch/cache_layer.h"
#include "arch/refresh_policy.h"
#include "pcm/endurance.h"

namespace wompcm {

const char* to_string(RefreshKind k) {
  return k == RefreshKind::kRat ? "rat" : "none";
}

bool refresh_kind_from_string(const std::string& s, RefreshKind* out) {
  if (s == "none") {
    *out = RefreshKind::kNone;
  } else if (s == "rat") {
    *out = RefreshKind::kRat;
  } else {
    return false;
  }
  return true;
}

namespace {

// main coding, cache on, cache coding, refresh.
constexpr ArchPreset kPresets[] = {
    {"pcm",
     {CodingKind::kRaw, false, CodingKind::kWomWide, RefreshKind::kNone}},
    {"wom",
     {CodingKind::kWomWide, false, CodingKind::kWomWide, RefreshKind::kNone}},
    {"refresh",
     {CodingKind::kWomWide, false, CodingKind::kWomWide, RefreshKind::kRat}},
    {"wcpcm",
     {CodingKind::kRaw, true, CodingKind::kWomWide, RefreshKind::kRat}},
    {"fnw",
     {CodingKind::kFlipNWrite, false, CodingKind::kWomWide, RefreshKind::kNone}},
    {"symmetric",
     {CodingKind::kSymmetric, false, CodingKind::kWomWide, RefreshKind::kNone}},
};

}  // namespace

std::span<const ArchPreset> arch_presets() { return kPresets; }

Composition arch_preset(std::string_view name) {
  for (const ArchPreset& p : kPresets) {
    if (name == p.name) return p.composition;
  }
  std::string valid;
  for (const ArchPreset& p : kPresets) {
    if (!valid.empty()) valid += ", ";
    valid += p.name;
  }
  throw std::invalid_argument("unknown arch= preset '" + std::string(name) +
                              "' (valid: " + valid + ")");
}

bool composition_valid(const Composition& c, std::string* why) {
  if (c.cache_enabled && c.cache_coding == CodingKind::kWomHidden) {
    if (why != nullptr) {
      *why =
          "cache.coding=wom-hidden has no meaning: the WOM-cache is its own "
          "per-rank array with no hidden page region to pair with; use "
          "cache.coding=wom-wide";
    }
    return false;
  }
  if (c.refresh == RefreshKind::kRat && !is_wom_coding(c.main_coding) &&
      !(c.cache_enabled && is_wom_coding(c.cache_coding))) {
    if (why != nullptr) {
      *why =
          "refresh=rat needs at least one WOM-coded region (row-address "
          "tables track WOM rewrite limits, which raw/fnw/symmetric codings "
          "do not have); set main.coding=wom-wide or wom-hidden, enable a "
          "WOM-coded cache (cache.enabled=on cache.coding=wom-wide), or set "
          "refresh=none";
    }
    return false;
  }
  return true;
}

Composition validate_composition(Composition c) {
  if (!c.cache_enabled) c.cache_coding = CodingKind::kWomWide;  // normalize
  std::string why;
  if (!composition_valid(c, &why)) {
    throw std::invalid_argument("bad composition: " + why);
  }
  return c;
}

namespace {

// Step 1 of the constructor: everything the members are built from, checked
// before the address mapper sees the geometry.
const MemoryGeometry& checked_geometry(const MemoryGeometry& geom,
                                       const PcmTiming& timing,
                                       const ArchConfig& cfg) {
  std::string why;
  if (!geom.valid(&why)) {
    throw std::invalid_argument("bad geometry: " + why);
  }
  if (!timing.valid(&why)) {
    throw std::invalid_argument("bad timing: " + why);
  }
  if (cfg.start_gap && cfg.composition.cache_enabled) {
    // The WOM-cache index is the row address, so remapping main rows would
    // desynchronize the cache; Start-Gap covers the row-addressed
    // compositions only.
    throw std::invalid_argument(
        "start_gap=true needs a composition without a cache front end "
        "(cache.enabled=true indexes the cache by row address, which "
        "Start-Gap would remap); set start_gap=false or cache.enabled=false");
  }
  if (cfg.rat_entries == 0) {
    throw std::invalid_argument("rat must be >= 1 (got 0)");
  }
  if (cfg.start_gap_interval == 0) {
    throw std::invalid_argument("start_gap_interval must be >= 1 (got 0)");
  }
  return geom;
}

}  // namespace

Architecture::Architecture(const MemoryGeometry& geom, const PcmTiming& timing,
                           const ArchConfig& cfg, const FaultConfig& fault)
    : geom_(checked_geometry(geom, timing, cfg)),
      mapper_(geom),
      timing_(timing),
      row_key_stride_(geom.rows_per_bank + 1),
      comp_(validate_composition(cfg.composition)),
      // Generation slabs only when some region is WOM-coded, fault-state
      // slabs only with the fault model on.
      rows_(geom.lines_per_row(),
            is_wom_coding(comp_.main_coding) ||
                (comp_.cache_enabled && is_wom_coding(comp_.cache_coding)),
            fault.enabled),
      // Each WOM-coded region resolves its code (main.code= / cache.code=
      // override, else the shared legacy code= key or the family default).
      // A raw/fnw composition builds even with an unresolvable cfg.code:
      // resolve_region_code returns an empty RegionCode for the non-WOM
      // kinds without looking at the name.
      main_coding_(comp_.main_coding, region_context(),
                   resolve_region_code(comp_.main_coding, cfg.main_code,
                                       cfg.code, line_bits()),
                   /*erased_start=*/false,
                   cfg.fnw_fast_fraction, cfg.seed) {
  // One energy bucket per channel, folded in channel order (see
  // pcm/energy.h; the registry corpus pins the folded totals).
  // Single-channel geometries get one bucket and behave exactly like the
  // plain accumulator.
  energy_.configure_channels(geom.channels);
  if (comp_.cache_enabled) {
    // The cache's small array is formatted at boot and cycles through
    // refresh continuously, so its untouched rows start erased.
    cache_coding_.emplace(comp_.cache_coding, region_context(),
                          resolve_region_code(comp_.cache_coding,
                                              cfg.cache_code, cfg.code,
                                              line_bits()),
                          /*erased_start=*/true,
                          cfg.fnw_fast_fraction, cfg.seed);
    cache_ = std::make_unique<CacheLayer>(geom);
  }
  if (comp_.refresh == RefreshKind::kRat) {
    // A RAT attaches to each region whose coding has refreshable
    // generation state (validate_composition guarantees at least one).
    if (main_coding_.refreshable()) {
      // Serve the most recently recorded row first: it is the hottest and
      // the most likely to take its alpha-write soon.
      main_rat_ = std::make_unique<RatRefreshPolicy>(
          main_banks(), cfg.rat_entries, RatRefreshPolicy::ServeOrder::kNewestFirst,
          &counters_);
    }
    if (cache_coding_ && cache_coding_->refreshable()) {
      // The cache array cycles continuously through refresh, so its RAT
      // drains in insertion order.
      cache_rat_ = std::make_unique<RatRefreshPolicy>(
          geom.channels * geom.ranks, cfg.rat_entries,
          RatRefreshPolicy::ServeOrder::kOldestFirst, &counters_);
    }
  }
  if (cfg.start_gap) {
    start_gap_.reserve(main_banks());
    for (unsigned b = 0; b < main_banks(); ++b) {
      start_gap_.emplace_back(geom_.rows_per_bank, cfg.start_gap_interval);
    }
  }
  // Faults last: a disabled config is a no-op, keeping the off-path
  // bit-identical to a build without faults.
  std::string why;
  if (!fault.valid(&why)) {
    throw std::invalid_argument("bad fault config: " + why);
  }
  if (fault.enabled) {
    fault_ = std::make_unique<FaultModel>(fault, geom_.lines_per_row(),
                                          geom_.channels);
    // Three physical-row populations per bank: the logical rows, the
    // Start-Gap spare (rows_per_bank), then the fault spares. Widen the
    // wear-key stride so spares never alias the next bank's keys; with
    // faults off the stride (and thus every key) is unchanged.
    row_key_stride_ = geom_.rows_per_bank + 1 + fault.spare_rows;
    if (fault.spare_rows > 0) {
      remap_ = std::make_unique<SpareRowRemapper>(
          main_banks(), fault.spare_rows, geom_.rows_per_bank + 1);
    }
    fault_by_channel_.assign(geom_.channels, FaultTally{});
  }
}

Architecture::~Architecture() = default;

std::string Architecture::name() const {
  // The paper's designs keep the names every config, bench and plot
  // already uses.
  const std::string& main_code = main_coding_.code_name();
  const std::string cache_code =
      cache_coding_ ? cache_coding_->code_name() : std::string();
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
          return std::string("wom-pcm[") + main_code + "," + org + "]";
        case CodingKind::kPolar:
        case CodingKind::kTsConstrained:
          break;
      }
    } else if (classic_main) {
      return std::string("pcm-refresh[") + main_code + "," + org + "]";
    }
  } else if (comp_ == Composition{CodingKind::kRaw, true, CodingKind::kWomWide,
                                  RefreshKind::kRat}) {
    return std::string("wcpcm[") + cache_code + "]";
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
  if (main_wom && cache_wom && main_code != cache_code) {
    s += ",main.code=" + main_code + ",cache.code=" + cache_code;
  } else if (main_wom || cache_wom) {
    s += ",code=" + (main_wom ? main_code : cache_code);
  }
  s += "]";
  return s;
}

unsigned Architecture::num_resources() const {
  return main_banks() + (cache_ == nullptr ? 0 : cache_->arrays());
}

unsigned Architecture::resource_channel(unsigned resource) const {
  // Main banks are flat-indexed channel-major (see AddressMapper::flat_bank);
  // cache arrays are appended channel-major by rank (see CacheLayer::index).
  if (resource < main_banks()) {
    return resource / (geom_.ranks * geom_.banks_per_rank);
  }
  return (resource - main_banks()) / geom_.ranks;
}

unsigned Architecture::cache_resource(unsigned channel, unsigned rank) const {
  return main_banks() + cache_->index(channel, rank);
}

unsigned Architecture::route(const DecodedAddr& dec, AccessType type,
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

IssuePlan Architecture::plan_main_write(const DecodedAddr& dec, bool internal,
                                        IssuePlan p) {
  RowKey key = row_key_for(p.resource, p.row);
  CodingPolicy::WriteBegin rec = main_coding_.begin_write(key, dec.col, &p);
  const FaultOutcome f = fault_on_write(p.resource, rec.id, dec.channel,
                                        dec.col, /*allow_remap=*/true, &p);
  if (f.remapped) {
    // The row moved to a fresh spare: start its generation there so the
    // rewrite budget tracks the cells actually being programmed.
    key = row_key_for(p.resource, p.row);
    main_coding_.note_remap(key, dec.col, &rec);
  }
  const bool at_limit =
      main_coding_.finish_write(rec, f.demoted, dec.col, internal, &p);
  if (at_limit && main_rat_ != nullptr) main_rat_->touch(p.resource, key);
  return p;
}

IssuePlan Architecture::plan_cache_write(const DecodedAddr& dec, IssuePlan p) {
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
  p.retagged = !occupied || occupant != dec.bank ||
               !cache_->line_set(ci, dec.row, dec.col);
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
  const CodingPolicy::WriteBegin rec =
      cache_coding_->begin_write(cache_row_key(ci, dec.row), dec.col, &p);
  // No spare pool behind the cache array: a dead verdict is handled below
  // by retire-and-bypass.
  const FaultOutcome f =
      fault_on_write(main_banks() + ci, rec.id, dec.channel, dec.col,
                     /*allow_remap=*/false, &p);
  const bool at_limit = cache_coding_->finish_write(rec, f.demoted, dec.col,
                                                    /*internal=*/false, &p);
  if (f.dead_unmapped) {
    // The row can no longer be programmed reliably: retire it from cache
    // service. A miss already flushed the previous occupant; on a hit the
    // bypass write below refreshes the same main-memory row, so the entry
    // is dropped outright and the demand line re-queued to main. The dead
    // bit makes every later write bypass before touching the entry.
    p.retagged = true;  // retirement can flip a queued probe
    cache_->retire(ci, dec.row);
    bump(ctr_dead_cache_rows_, "wcpcm.dead_rows");
    p.spawned.push_back(SpawnedWrite{dec});
    bump(ctr_bypass_writes_, "wcpcm.bypass_writes");
    return p;
  }
  if (at_limit && cache_rat_ != nullptr) cache_rat_->touch(ci, dec.row);
  cache_->install(ci, dec.row, dec.bank, dec.col);
  return p;
}

IssuePlan Architecture::plan(const DecodedAddr& dec, AccessType type,
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
      cache_coding_->read_energy();
      fault_on_read(dec.channel, &p);
      cache_coding_->read_extras(&p);
    } else {
      bump(ctr_read_misses_, "wcpcm.read_misses");
      p.resource = flat_bank(dec);
      p.row = resolved_row(p.resource, dec.row);
      main_coding_.read_energy();
      fault_on_read(dec.channel, &p);
      main_coding_.read_extras(&p);
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
  main_coding_.read_energy();
  fault_on_read(dec.channel, &p);
  main_coding_.read_extras(&p);
  return p;
}

double Architecture::refresh_pending_fraction(unsigned channel,
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

Architecture::RefreshWork Architecture::perform_refresh(
    unsigned channel, unsigned rank,
    FunctionRef<bool(unsigned)> unit_ready) {
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
            return main_coding_.refresh_row(key);
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
            return cache_coding_->refresh_row(cache_row_key(ci, r));
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

std::vector<unsigned> Architecture::refresh_resources(unsigned channel,
                                                      unsigned rank) const {
  std::vector<unsigned> res;
  // Every bank of the rank, unless only the cache array is refreshed.
  if (main_rat_ != nullptr || cache_rat_ == nullptr) {
    res.reserve(geom_.banks_per_rank);
    const unsigned base =
        (channel * geom_.ranks + rank) * geom_.banks_per_rank;
    for (unsigned b = 0; b < geom_.banks_per_rank; ++b) res.push_back(base + b);
  }
  if (cache_rat_ != nullptr) res.push_back(cache_resource(channel, rank));
  return res;
}

double Architecture::capacity_overhead() const {
  double overhead = main_coding_.overhead();
  if (cache_ != nullptr) {
    // The cache stores one coded bank's worth of rows per rank:
    // (1 + coding overhead) / N_bank of the main capacity.
    overhead += (1.0 + cache_coding_->overhead()) /
                static_cast<double>(geom_.banks_per_rank);
  }
  return overhead;
}

double Architecture::write_hit_rate() const {
  const auto h = counters_.get("wcpcm.write_hits");
  const auto m = counters_.get("wcpcm.write_misses");
  return h + m == 0 ? 0.0
                    : static_cast<double>(h) / static_cast<double>(h + m);
}

std::size_t Architecture::rat_size(unsigned flat_bank_idx) const {
  return main_rat_ == nullptr ? 0 : main_rat_->size(flat_bank_idx);
}

unsigned Architecture::physical_row(const DecodedAddr& dec, AccessType type,
                                    IssuePlan* plan) {
  unsigned row = dec.row;
  if (!start_gap_.empty()) {
    StartGapRemapper& sg = start_gap_[flat_bank(dec)];
    if (type == AccessType::kWrite && sg.on_write()) {
      // Gap move: the bank copies one row (read + write) before servicing
      // further accesses.
      plan->post_ns += timing_.row_read_ns + timing_.row_write_ns;
      counters_.inc("wl.gap_moves");
    }
    row = sg.remap(dec.row);
  }
  // Retired rows resolve through the bad-row chain after wear leveling:
  // Start-Gap rotates logical rows, the remap table patches dead physical
  // rows out from under the rotation.
  return resolved_row(flat_bank(dec), row);
}

Architecture::FaultOutcome Architecture::fault_on_write(
    unsigned keyed_bank, std::uint32_t id, unsigned channel, unsigned line,
    bool allow_remap, IssuePlan* p) {
  FaultOutcome out;
  if (fault_ == nullptr) return out;
  FaultTally& tally = fault_by_channel_[channel];
  // Original array rows carry the configured initial wear; the Start-Gap
  // spare and the fault spares (row >= rows_per_bank) are fresh stock.
  const bool pre_aged = p->row < geom_.rows_per_bank;
  const FaultModel::Observation obs = fault_->observe_write(
      row_key_for(keyed_bank, p->row), line, rows_.line_wear(id, line),
      pre_aged, rows_.fault_state(id, line));
  if (obs.transitioned) ++tally.injected;
  if (obs.state == FaultModel::LineState::kHealthy) return out;
  // Stuck cells break the monotone 0->1 WOM rewrite: a fast-path write is
  // demoted to a full alpha re-program before verify has a chance.
  if (p->write_class == WriteClass::kResetOnly) {
    p->write_class = WriteClass::kAlpha;
    p->program_ns = timing_.program_ns(WriteClass::kAlpha);
    ++tally.demoted;
    out.demoted = true;
  }
  // Write-verify with bounded retry: each retry re-programs the line and
  // reads it back. A dead line burns the full budget and still fails.
  const bool dead = obs.state == FaultModel::LineState::kDead;
  const unsigned retries =
      dead ? fault_->config().max_retries : fault_->retry_draw(channel);
  p->post_ns += retries * (p->program_ns + timing_.col_read_ns);
  tally.retries += retries;
  rows_.add_wear(id, line, retries * kAlphaWearPerCell);
  if (!dead) return out;
  if (obs.transitioned) ++tally.dead_rows;
  if (!allow_remap || remap_ == nullptr) {
    out.dead_unmapped = true;
    return out;
  }
  if (std::optional<unsigned> spare = remap_->retire(keyed_bank, p->row)) {
    // Retirement migrates the row: stream the dead row out (its data is
    // still correctable) and program it into the fresh spare.
    p->post_ns += timing_.row_read_ns + timing_.row_write_ns;
    p->row = *spare;
    ++tally.remapped;
    out.remapped = true;
  } else {
    ++tally.exhausted;
    out.dead_unmapped = true;
  }
  return out;
}

void Architecture::fault_on_read(unsigned channel, IssuePlan* p) {
  if (fault_ == nullptr) return;
  if (!fault_->read_disturbed(channel)) return;
  FaultTally& tally = fault_by_channel_[channel];
  ++tally.read_disturbs;
  ++tally.injected;
  // A disturbed read is caught by ECC and pays one corrective re-read.
  p->post_ns += timing_.col_read_ns;
}

void Architecture::publish_metrics(MetricsRegistry& reg, Tick end_time) const {
  reg.set_gauge("arch.capacity_overhead", capacity_overhead());
  reg.set_gauge("energy.read_pj", energy_.read_pj());
  reg.set_gauge("energy.write_pj", energy_.write_pj());
  reg.set_gauge("energy.refresh_pj", energy_.refresh_pj());
  reg.set_gauge("wear.max_line", rows_.max_line_wear());
  reg.set_gauge("wear.mean_line", rows_.mean_line_wear());
  reg.set_gauge("wear.lifetime_years",
                lifetime_years(rows_.max_line_wear(), end_time));
  if (fault_ != nullptr) {
    // Published only when the fault model is installed, so the off-path
    // registry stays bit-identical to a build without faults.
    FaultTally sum;
    for (unsigned c = 0; c < geom_.channels; ++c) {
      const FaultTally& t = fault_by_channel_[c];
      sum.injected += t.injected;
      sum.retries += t.retries;
      sum.demoted += t.demoted;
      sum.remapped += t.remapped;
      sum.dead_rows += t.dead_rows;
      sum.read_disturbs += t.read_disturbs;
      sum.exhausted += t.exhausted;
      reg.set_counter(channel_metric(c, "fault.injected"), t.injected);
      reg.set_counter(channel_metric(c, "fault.retries"), t.retries);
      reg.set_counter(channel_metric(c, "fault.demoted_writes"), t.demoted);
      reg.set_counter(channel_metric(c, "fault.remapped_rows"), t.remapped);
    }
    reg.set_counter("fault.injected", sum.injected);
    reg.set_counter("fault.retries", sum.retries);
    reg.set_counter("fault.demoted_writes", sum.demoted);
    reg.set_counter("fault.remapped_rows", sum.remapped);
    reg.set_counter("fault.dead_rows", sum.dead_rows);
    reg.set_counter("fault.read_disturbs", sum.read_disturbs);
    reg.set_counter("fault.remap_exhausted", sum.exhausted);
    reg.set_counter("fault.spare_rows_per_bank",
                    remap_ == nullptr ? 0 : remap_->spare_rows());
  }
}

}  // namespace wompcm
