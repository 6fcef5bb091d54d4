#include "pcm/energy.h"

namespace wompcm {

void EnergyCounters::configure_channels(unsigned channels) {
  buckets_.assign(channels == 0 ? 1 : channels, Bucket{});
  cur_ = 0;
}

void EnergyCounters::on_read(std::uint64_t bits) {
  buckets_[cur_].read_pj += p_.read_pj_per_bit * static_cast<double>(bits);
}

void EnergyCounters::on_write(WriteClass cls, std::uint64_t bits) {
  Bucket& bk = buckets_[cur_];
  const double b = static_cast<double>(bits);
  if (cls == WriteClass::kResetOnly) {
    // Half the coded bits flip on average, all with RESET pulses.
    const double flipped = b / 2.0;
    bk.write_pj += p_.reset_pj_per_bit * flipped;
    bk.reset_pulses += static_cast<std::uint64_t>(flipped);
  } else {
    // Erase (SET) plus program (RESET), half the bits each on average.
    bk.write_pj += (p_.set_pj_per_bit + p_.reset_pj_per_bit) * (b / 2.0);
    bk.set_pulses += static_cast<std::uint64_t>(b / 2.0);
    bk.reset_pulses += static_cast<std::uint64_t>(b / 2.0);
  }
}

void EnergyCounters::on_refresh(std::uint64_t bits) {
  Bucket& bk = buckets_[cur_];
  const double b = static_cast<double>(bits);
  // One row read plus a row write that raises roughly half the bits back to
  // the erased (all-ones) inverted-code state.
  bk.refresh_pj += p_.read_pj_per_bit * b + p_.set_pj_per_bit * (b / 2.0);
  bk.set_pulses += static_cast<std::uint64_t>(b / 2.0);
}

void EnergyCounters::add_pulses(std::uint64_t set_pulses,
                                std::uint64_t reset_pulses) {
  Bucket& bk = buckets_[cur_];
  bk.set_pulses += set_pulses;
  bk.reset_pulses += reset_pulses;
  bk.write_pj += p_.set_pj_per_bit * static_cast<double>(set_pulses) +
                 p_.reset_pj_per_bit * static_cast<double>(reset_pulses);
}

double EnergyCounters::read_pj() const {
  double v = 0;
  for (const Bucket& b : buckets_) v += b.read_pj;
  return v;
}

double EnergyCounters::write_pj() const {
  double v = 0;
  for (const Bucket& b : buckets_) v += b.write_pj;
  return v;
}

double EnergyCounters::refresh_pj() const {
  double v = 0;
  for (const Bucket& b : buckets_) v += b.refresh_pj;
  return v;
}

std::uint64_t EnergyCounters::set_pulses() const {
  std::uint64_t v = 0;
  for (const Bucket& b : buckets_) v += b.set_pulses;
  return v;
}

std::uint64_t EnergyCounters::reset_pulses() const {
  std::uint64_t v = 0;
  for (const Bucket& b : buckets_) v += b.reset_pulses;
  return v;
}

}  // namespace wompcm
