#include <gtest/gtest.h>

#include "pcm/energy.h"

namespace wompcm {
namespace {

TEST(EnergyCounters, StartsAtZero) {
  EnergyCounters e;
  EXPECT_DOUBLE_EQ(e.total_pj(), 0.0);
  EXPECT_EQ(e.set_pulses(), 0u);
  EXPECT_EQ(e.reset_pulses(), 0u);
}

TEST(EnergyCounters, ReadEnergy) {
  EnergyParams p;
  p.read_pj_per_bit = 2.0;
  EnergyCounters e(p);
  e.on_read(512);
  EXPECT_DOUBLE_EQ(e.read_pj(), 1024.0);
  EXPECT_DOUBLE_EQ(e.write_pj(), 0.0);
}

TEST(EnergyCounters, ResetOnlyWriteUsesOnlyResetPulses) {
  EnergyParams p;
  p.reset_pj_per_bit = 10.0;
  p.set_pj_per_bit = 100.0;
  EnergyCounters e(p);
  e.on_write(WriteClass::kResetOnly, 100);
  // Half the bits flip, all RESET.
  EXPECT_DOUBLE_EQ(e.write_pj(), 10.0 * 50.0);
  EXPECT_EQ(e.set_pulses(), 0u);
  EXPECT_EQ(e.reset_pulses(), 50u);
}

TEST(EnergyCounters, AlphaWriteUsesBothPulseKinds) {
  EnergyParams p;
  p.reset_pj_per_bit = 10.0;
  p.set_pj_per_bit = 20.0;
  EnergyCounters e(p);
  e.on_write(WriteClass::kAlpha, 100);
  EXPECT_DOUBLE_EQ(e.write_pj(), (10.0 + 20.0) * 50.0);
  EXPECT_EQ(e.set_pulses(), 50u);
  EXPECT_EQ(e.reset_pulses(), 50u);
}

TEST(EnergyCounters, RefreshIsReadPlusSetHalf) {
  EnergyParams p;
  p.read_pj_per_bit = 2.0;
  p.set_pj_per_bit = 20.0;
  EnergyCounters e(p);
  e.on_refresh(100);
  EXPECT_DOUBLE_EQ(e.refresh_pj(), 2.0 * 100.0 + 20.0 * 50.0);
}

TEST(EnergyCounters, ExactPulseInterface) {
  EnergyParams p;
  p.set_pj_per_bit = 3.0;
  p.reset_pj_per_bit = 2.0;
  EnergyCounters e(p);
  e.add_pulses(7, 11);
  EXPECT_EQ(e.set_pulses(), 7u);
  EXPECT_EQ(e.reset_pulses(), 11u);
  EXPECT_DOUBLE_EQ(e.write_pj(), 7 * 3.0 + 11 * 2.0);
}

TEST(EnergyCounters, TotalsAccumulate) {
  EnergyCounters e;
  e.on_read(64);
  e.on_write(WriteClass::kAlpha, 64);
  e.on_refresh(64);
  EXPECT_DOUBLE_EQ(e.total_pj(), e.read_pj() + e.write_pj() + e.refresh_pj());
  EXPECT_GT(e.total_pj(), 0.0);

  // Per-channel buckets fold in channel order, which the registry corpus
  // pins: 2^53 + 1 + 1 rounds back to 2^53 in that order, but would read
  // 2^53 + 2 folded from the last channel down.
  EnergyParams p;
  p.read_pj_per_bit = 1.0;
  EnergyCounters multi(p);
  multi.configure_channels(3);
  for (unsigned c = 0; c < 3; ++c) {
    multi.select_channel(c);
    multi.on_read(c == 0 ? std::uint64_t{1} << 53 : 1);
  }
  EXPECT_EQ(multi.read_pj(), 9007199254740992.0);
}

TEST(EnergyCounters, AlphaWriteCostsMoreThanResetOnly) {
  EnergyCounters fast, slow;
  fast.on_write(WriteClass::kResetOnly, 512);
  slow.on_write(WriteClass::kAlpha, 512);
  EXPECT_GT(slow.write_pj(), fast.write_pj());
}

}  // namespace
}  // namespace wompcm
