#include "pcm/fault_model.h"

#include <cmath>

namespace wompcm {

namespace {

// SplitMix64 finalizer: full-avalanche mixing (same constants as the
// FlatMap64 hash and the Rng seeding path).
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

// Uniform draw in (0, 1] from a mixed word (never 0, so log() is safe).
double to_unit(std::uint64_t h) {
  return (static_cast<double>(h >> 11) + 1.0) * 0x1.0p-53;
}

// Domain tags keep the per-line and per-event streams disjoint.
constexpr std::uint64_t kLineDomain = 0x6c696e65ULL;    // "line"
constexpr std::uint64_t kEventDomain = 0x65766e74ULL;   // "evnt"

}  // namespace

bool FaultConfig::valid(std::string* why) const {
  const auto fail = [&](const char* msg) {
    if (why != nullptr) *why = msg;
    return false;
  };
  if (!(endurance > 0.0)) return fail("fault.endurance must be > 0");
  if (!(sigma >= 0.0)) return fail("fault.sigma must be >= 0");
  if (!(initial_wear >= 0.0)) return fail("fault.initial_wear must be >= 0");
  if (max_retries < 1) return fail("fault.max_retries must be >= 1");
  if (read_disturb < 0.0 || read_disturb > 1.0) {
    return fail("fault.read_disturb must be in [0, 1]");
  }
  return true;
}

FaultModel::FaultModel(const FaultConfig& cfg, unsigned lines_per_row,
                       unsigned channels)
    : cfg_(cfg),
      lines_(lines_per_row == 0 ? 1 : lines_per_row),
      events_(channels == 0 ? 1 : channels, 0) {}

double FaultModel::line_endurance(RowKey row, unsigned line) const {
  if (cfg_.sigma <= 0.0) return cfg_.endurance;
  const std::uint64_t h =
      mix64(cfg_.seed ^ mix64(line_key(row, line) ^ kLineDomain));
  // Box-Muller: two uniforms from one stateless hash chain.
  const double u1 = to_unit(h);
  const double u2 = to_unit(mix64(h));
  const double z =
      std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
  return cfg_.endurance * std::exp(cfg_.sigma * z);
}

FaultModel::LineState FaultModel::classify(RowKey row, unsigned line,
                                           double wear, bool pre_aged) const {
  const double effective =
      wear + (pre_aged ? cfg_.initial_wear * cfg_.endurance : 0.0);
  const double budget = line_endurance(row, line);
  if (effective >= budget * kDeadWearFactor) return LineState::kDead;
  if (effective >= budget) return LineState::kDegraded;
  return LineState::kHealthy;
}

FaultModel::Observation FaultModel::observe_write(RowKey row, unsigned line,
                                                  double wear, bool pre_aged,
                                                  std::uint8_t& recorded) {
  Observation obs;
  obs.previous = static_cast<LineState>(recorded);
  const LineState computed = classify(row, line, wear, pre_aged);
  // Sticky: wear only grows, but the recorded state also survives a row
  // retirement (the dead row is never healed by being abandoned).
  obs.state = computed > obs.previous ? computed : obs.previous;
  obs.transitioned = obs.state > obs.previous;
  recorded = static_cast<std::uint8_t>(obs.state);
  return obs;
}

std::uint64_t FaultModel::next_event_hash(unsigned channel) {
  // Per-channel event streams: the channel index is folded into the domain
  // tag above the 32-bit "evnt" constant, so streams never collide and
  // channel 0's stream is bit-for-bit the legacy global one. Keying the
  // draw by (channel, per-channel count) instead of one global count makes
  // it independent of how the channels' issue streams interleave; the
  // registry corpus pins the draws this keying produces.
  const std::uint64_t domain =
      kEventDomain + (static_cast<std::uint64_t>(channel) << 32);
  return mix64(cfg_.seed ^ mix64(++events_[channel] ^ domain));
}

unsigned FaultModel::retry_draw(unsigned channel) {
  return 1 + static_cast<unsigned>(next_event_hash(channel) %
                                   cfg_.max_retries);
}

bool FaultModel::read_disturbed(unsigned channel) {
  if (cfg_.read_disturb <= 0.0) return false;
  return to_unit(next_event_hash(channel)) <= cfg_.read_disturb;
}

}  // namespace wompcm
