#include "arch/arch.h"

#include <stdexcept>

#include "arch/composed.h"

namespace wompcm {

const char* to_string(CodingKind k) {
  switch (k) {
    case CodingKind::kRaw:
      return "raw";
    case CodingKind::kWomWide:
      return "wom-wide";
    case CodingKind::kWomHidden:
      return "wom-hidden";
    case CodingKind::kFlipNWrite:
      return "fnw";
    case CodingKind::kSymmetric:
      return "symmetric";
    case CodingKind::kPolar:
      return "polar";
    case CodingKind::kTsConstrained:
      return "ts-constrained";
  }
  return "?";
}

const char* to_string(RefreshKind k) {
  return k == RefreshKind::kRat ? "rat" : "none";
}

bool coding_kind_from_string(const std::string& s, CodingKind* out) {
  if (s == "raw") {
    *out = CodingKind::kRaw;
  } else if (s == "wom-wide") {
    *out = CodingKind::kWomWide;
  } else if (s == "wom-hidden") {
    *out = CodingKind::kWomHidden;
  } else if (s == "fnw") {
    *out = CodingKind::kFlipNWrite;
  } else if (s == "symmetric") {
    *out = CodingKind::kSymmetric;
  } else if (s == "polar") {
    *out = CodingKind::kPolar;
  } else if (s == "ts-constrained") {
    *out = CodingKind::kTsConstrained;
  } else {
    return false;
  }
  return true;
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

Architecture::Architecture(const MemoryGeometry& geom, const PcmTiming& timing)
    : geom_(geom),
      mapper_(geom),
      timing_(timing),
      wear_(geom.lines_per_row()),
      row_key_stride_(geom.rows_per_bank + 1) {
  // One energy bucket per channel: accumulation order within a channel plus
  // a channel-ordered fold is what keeps a sharded run's energy bit-equal
  // to serial (see pcm/energy.h). Single-channel geometries get one bucket
  // and behave exactly like the plain accumulator.
  energy_.configure_channels(geom.channels);
}

unsigned Architecture::num_resources() const { return main_banks(); }

void Architecture::enable_start_gap(unsigned interval) {
  start_gap_.clear();
  start_gap_.reserve(main_banks());
  for (unsigned b = 0; b < main_banks(); ++b) {
    start_gap_.emplace_back(geom_.rows_per_bank, interval);
  }
}

void Architecture::configure_faults(const FaultConfig& fault) {
  std::string why;
  if (!fault.valid(&why)) {
    throw std::invalid_argument("bad fault config: " + why);
  }
  if (!fault.enabled) return;
  fault_ =
      std::make_unique<FaultModel>(fault, geom_.lines_per_row(), geom_.channels);
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

Architecture::FaultOutcome Architecture::fault_on_write(unsigned keyed_bank,
                                                        unsigned channel,
                                                        unsigned line,
                                                        bool allow_remap,
                                                        IssuePlan* p) {
  FaultOutcome out;
  if (fault_ == nullptr) return out;
  FaultTally& tally = fault_by_channel_[channel];
  const std::uint64_t key = row_key_for(keyed_bank, p->row);
  // Original array rows carry the configured initial wear; the Start-Gap
  // spare and the fault spares (row >= rows_per_bank) are fresh stock.
  const bool pre_aged = p->row < geom_.rows_per_bank;
  const FaultModel::Observation obs =
      fault_->observe_write(key, line, wear_.line_wear(key, line), pre_aged);
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
  wear_.on_write_pulses(key, line, retries * kAlphaWearPerCell);
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

unsigned Architecture::route(const DecodedAddr& dec, AccessType type,
                             bool internal) const {
  (void)type;
  (void)internal;
  return mapper_.flat_bank(dec);
}

unsigned Architecture::resource_channel(unsigned resource) const {
  // Main banks are flat-indexed channel-major (see AddressMapper::flat_bank);
  // architectures that append extra resources override this.
  return resource / (geom_.ranks * geom_.banks_per_rank);
}

void Architecture::publish_metrics(MetricsRegistry& reg, Tick end_time) const {
  reg.set_gauge("arch.capacity_overhead", capacity_overhead());
  reg.set_gauge("energy.read_pj", energy_.read_pj());
  reg.set_gauge("energy.write_pj", energy_.write_pj());
  reg.set_gauge("energy.refresh_pj", energy_.refresh_pj());
  reg.set_gauge("wear.max_line", wear_.max_line_wear());
  reg.set_gauge("wear.mean_line", wear_.mean_line_wear());
  reg.set_gauge("wear.lifetime_years", wear_.lifetime_years(end_time));
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

void Architecture::merge_accounting_from(const Architecture& o) {
  counters_.merge(o.counters_);
  energy_.merge_from(o.energy_);
  wear_.merge_from(o.wear_);
  if (fault_by_channel_.size() < o.fault_by_channel_.size()) {
    fault_by_channel_.resize(o.fault_by_channel_.size());
  }
  for (std::size_t c = 0; c < o.fault_by_channel_.size(); ++c) {
    const FaultTally& t = o.fault_by_channel_[c];
    FaultTally& d = fault_by_channel_[c];
    d.injected += t.injected;
    d.retries += t.retries;
    d.demoted += t.demoted;
    d.remapped += t.remapped;
    d.dead_rows += t.dead_rows;
    d.read_disturbs += t.read_disturbs;
    d.exhausted += t.exhausted;
  }
}

double Architecture::refresh_pending_fraction(unsigned, unsigned) const {
  return 0.0;
}

Architecture::RefreshWork Architecture::perform_refresh(
    unsigned, unsigned, const std::function<bool(unsigned)>&) {
  return {};
}

std::vector<unsigned> Architecture::refresh_resources(unsigned channel,
                                                      unsigned rank) const {
  std::vector<unsigned> res;
  res.reserve(geom_.banks_per_rank);
  const unsigned base =
      (channel * geom_.ranks + rank) * geom_.banks_per_rank;
  for (unsigned b = 0; b < geom_.banks_per_rank; ++b) res.push_back(base + b);
  return res;
}

std::unique_ptr<Architecture> make_architecture(const ArchConfig& cfg,
                                                const MemoryGeometry& geom,
                                                const PcmTiming& timing) {
  return make_architecture(cfg, geom, timing, FaultConfig{});
}

std::unique_ptr<Architecture> make_architecture(const ArchConfig& cfg,
                                                const MemoryGeometry& geom,
                                                const PcmTiming& timing,
                                                const FaultConfig& fault) {
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
  auto arch = std::make_unique<ComposedArchitecture>(geom, timing, cfg);
  if (cfg.start_gap) arch->enable_start_gap(cfg.start_gap_interval);
  arch->configure_faults(fault);
  return arch;
}

}  // namespace wompcm
