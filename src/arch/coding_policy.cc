#include "arch/coding_policy.h"

#include <stdexcept>

#include "wom/encode_lut.h"
#include "wom/registry.h"

namespace wompcm {

namespace {

// Family defaults for the sectioned kinds when no main.code=/cache.code=
// override is given (the legacy code= key stays with the classic kinds).
const char* kPolarDefault = "polar-m7-inv";
const char* kTsDefault = "tsc-rs23x4-inv";

std::string known_names_hint() {
  std::string hint;
  for (const std::string& n : known_block_codec_names()) {
    if (!hint.empty()) hint += ", ";
    hint += n;
  }
  return hint;
}

}  // namespace

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

RegionCode resolve_region_code(CodingKind kind,
                               const std::string& override_name,
                               const std::string& legacy_code,
                               std::uint64_t line_bits) {
  RegionCode rc;
  if (!is_wom_coding(kind)) return rc;

  const bool sectioned =
      kind == CodingKind::kPolar || kind == CodingKind::kTsConstrained;
  std::string name = override_name;
  if (name.empty()) {
    if (kind == CodingKind::kPolar) {
      name = kPolarDefault;
    } else if (kind == CodingKind::kTsConstrained) {
      name = kTsDefault;
    } else {
      name = legacy_code;
    }
  }

  // Family membership first, so a mismatched name gets a pointer to the
  // coding kind that would accept it instead of a generic parse error.
  const bool is_polar_name = name.rfind("polar-", 0) == 0;
  const bool is_ts_name = name.rfind("tsc-", 0) == 0;
  if (kind == CodingKind::kPolar && !is_polar_name) {
    throw std::invalid_argument(
        "code \"" + name +
        "\" is not a polar-family code; coding=polar takes e.g. "
        "polar-m7-inv (use coding=wom-wide for symbol codes)");
  }
  if (kind == CodingKind::kTsConstrained && !is_ts_name) {
    throw std::invalid_argument(
        "code \"" + name +
        "\" is not a time-space constrained code; coding=ts-constrained "
        "takes e.g. tsc-rs23x4-inv (tsc-<base>x<replicas>)");
  }
  if (!sectioned && is_ts_name) {
    throw std::invalid_argument(
        "code \"" + name +
        "\" is a time-space constrained code; select it with "
        "coding=ts-constrained");
  }
  if (!sectioned && is_polar_name) {
    throw std::invalid_argument(
        "code \"" + name +
        "\" is a polar block code; select it with coding=polar");
  }

  const CodeInfo info = code_info(name);
  if (!info.valid) {
    throw std::invalid_argument("unknown WOM-code: " + name +
                                " (known: " + known_names_hint() + ")");
  }
  if (!info.inverted) {
    throw std::invalid_argument(
        "WOM architectures need an inverted code (RESET-only rewrites); "
        "use e.g. \"" +
        name + "-inv\"");
  }
  if (line_bits % info.data_bits != 0) {
    throw std::invalid_argument(
        "code " + name + " stores " + std::to_string(info.data_bits) +
        " bits per section, which does not divide the " +
        std::to_string(line_bits) + "-bit line; pick a code whose section "
        "size divides the line (e.g. " +
        (kind == CodingKind::kPolar ? kPolarDefault : kTsDefault) + ")");
  }

  rc.name = info.name;
  rc.data_bits = info.data_bits;
  rc.wits = info.wits;
  rc.max_writes = info.max_writes;
  rc.wear_bound = info.wear_bound;
  rc.lut = info.lut;
  return rc;
}

CodingPolicy::CodingPolicy(CodingKind kind, const RegionContext& ctx,
                           RegionCode code, bool erased_start,
                           double fnw_fast_fraction, std::uint64_t seed)
    : kind_(kind),
      ctx_(ctx),
      coded_line_bits_(ctx.line_bits),
      initial_gen_(erased_start ? 0 : RowTable::kUnknownGen) {
  if (kind == CodingKind::kFlipNWrite) {
    // One generator per channel, so the fast/slow draw sequence each
    // channel sees depends only on that channel's own write order, like
    // FaultModel's per-channel event streams. The registry corpus pins the
    // results of these per-channel draws. Channel 0 seeds exactly as the
    // single shared generator used to, keeping single-channel runs
    // bit-identical.
    fnw_fast_fraction_ = fnw_fast_fraction;
    overhead_ = 1.0 / 64.0;  // one flip bit per data word
    const unsigned channels = ctx.channels == 0 ? 1 : ctx.channels;
    fnw_rngs_.reserve(channels);
    for (unsigned c = 0; c < channels; ++c) {
      fnw_rngs_.emplace_back(seed ^ (0x9e3779b97f4a7c15ULL * c));
    }
  }
  if (!is_wom_coding(kind)) return;
  if (code.data_bits == 0 || code.wits == 0 || code.max_writes == 0) {
    throw std::invalid_argument(
        std::string("CodingPolicy: coding=") + to_string(kind) +
        " needs a resolved code (resolve_region_code)");
  }
  code_name_ = std::move(code.name);
  coded_line_bits_ = ctx.line_bits * code.wits / code.data_bits;
  overhead_ = static_cast<double>(code.wits) / code.data_bits - 1.0;
  wear_bound_ = code.wear_bound;
  lut_ = code.lut;
  t_ = code.max_writes;
}

bool CodingPolicy::refresh_row(RowKey key) {
  if (t_ == 0) return false;
  const std::uint32_t id = ctx_.rows->find(key);
  if (id == 0 || !ctx_.rows->erase(id)) return false;
  ctx_.energy->on_refresh(coded_line_bits_);
  ctx_.rows->add_row_wear(id, kRefreshWearPerCell);
  return true;
}

}  // namespace wompcm
