// Core scalar types shared across the womcode-pcm libraries.
#pragma once

#include <cstdint>
#include <string>

namespace wompcm {

// Simulation time. One tick equals one nanosecond: the paper quotes all PCM
// latencies in nanoseconds, so no clock-domain conversion is needed.
using Tick = std::uint64_t;

// Physical byte address as seen by the memory controller.
using Addr = std::uint64_t;

// Flat row identifier (bank-and-row folded into one key) that keys the
// per-row generation, wear and fault state (arch/row_table.h).
using RowKey = std::uint64_t;

// Sentinel for "no scheduled time".
inline constexpr Tick kNeverTick = ~Tick{0};

enum class AccessType : std::uint8_t { kRead, kWrite };

inline const char* to_string(AccessType t) {
  return t == AccessType::kRead ? "read" : "write";
}

// Classification of a row programming operation, which determines its
// latency under a WOM-coded architecture (Section 3 of the paper).
enum class WriteClass : std::uint8_t {
  kResetOnly,  // rewrite within the WOM budget: RESET pulses only (fast)
  kAlpha,      // first write after the rewrite limit: needs SET (slow)
};

inline const char* to_string(WriteClass c) {
  return c == WriteClass::kResetOnly ? "reset-only" : "alpha";
}

// How the extra capacity for WOM-encoded data is provisioned (Section 3.1).
enum class WomOrganization : std::uint8_t {
  kWideColumn,  // columns widened to hold the encoded bits in place
  kHiddenPage,  // controller-managed hidden pages hold the upper bits
};

inline const char* to_string(WomOrganization o) {
  return o == WomOrganization::kWideColumn ? "wide-column" : "hidden-page";
}

}  // namespace wompcm
