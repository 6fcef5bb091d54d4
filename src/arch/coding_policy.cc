#include "arch/coding_policy.h"

#include <stdexcept>

#include "arch/coding_policies.h"
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

WomCodePtr resolve_inverted_wom_code(const std::string& name) {
  WomCodePtr code = make_code(name);
  if (code == nullptr) {
    throw std::invalid_argument("unknown WOM-code: " + name);
  }
  if (code->raises_bits()) {
    throw std::invalid_argument(
        "WOM architectures need an inverted code (RESET-only rewrites); "
        "use e.g. \"" +
        name + "-inv\"");
  }
  return code;
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
  if (kind != CodingKind::kTsConstrained) {
    // The classic kinds (and polar) are symbol codes; keep the shared
    // pointer for name()/diagnostic surfaces and the reference codecs.
    rc.code = resolve_inverted_wom_code(name);
  }
  return rc;
}

std::unique_ptr<CodingPolicy> make_coding_policy(
    CodingKind kind, const RegionContext& ctx, RegionCode code,
    unsigned lines_per_row, bool erased_start, double fnw_fast_fraction,
    std::uint64_t seed) {
  switch (kind) {
    case CodingKind::kRaw:
      return std::make_unique<RawCoding>(ctx);
    case CodingKind::kSymmetric:
      return std::make_unique<SymmetricCoding>(ctx);
    case CodingKind::kFlipNWrite:
      return std::make_unique<FnwCoding>(ctx, fnw_fast_fraction, seed);
    case CodingKind::kWomWide:
    case CodingKind::kWomHidden:
    case CodingKind::kPolar:
    case CodingKind::kTsConstrained:
      return std::make_unique<WomCoding>(ctx, kind, std::move(code),
                                         lines_per_row, erased_start);
  }
  throw std::invalid_argument("unknown coding kind");
}

}  // namespace wompcm
