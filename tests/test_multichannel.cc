// Multi-channel coverage through the serial MemorySystem backend:
// independent data buses, per-channel back-pressure and refresh
// scheduling, cross-channel independence, and end-to-end runs on a
// 2-channel geometry.
#include <gtest/gtest.h>

#include <memory>

#include "arrival_feed.h"
#include "sim/experiment.h"
#include "sim/memory_system.h"

namespace wompcm {
namespace {

MemoryGeometry two_channel_geom() {
  MemoryGeometry g;
  g.channels = 2;
  g.ranks = 2;
  g.banks_per_rank = 2;
  g.rows_per_bank = 16;
  g.cols_per_row = 64;
  return g;
}

class MultiChannelTest : public ::testing::Test {
 protected:
  void SetUp() override { build(); }

  void build(const char* preset = "pcm") {
    cfg_ = SimConfig{};
    cfg_.geom = two_channel_geom();
    cfg_.arch.composition = arch_preset(preset);
    mem_ = std::make_unique<MemorySystem>(cfg_);
  }

  Transaction tx(std::uint64_t id, unsigned channel, unsigned rank,
                 unsigned bank, unsigned row, AccessType type, Tick arrival) {
    Transaction t;
    t.id = id;
    t.dec = DecodedAddr{channel, rank, bank, row, 0};
    t.type = type;
    t.arrival = arrival;
    return t;
  }

  // Delivers the fed transactions at their arrival instants and runs the
  // memory system's events up to and including `limit`.
  void run_to_drain(Tick limit = kNeverTick) { feed_.run(*mem_, limit); }

  // End-of-run books: the registry and the per-resource bank snapshot.
  SimResult finish(MetricsRegistry& reg) {
    SimResult r;
    mem_->finish(reg, r);
    return r;
  }

  const SimStats& stats() const { return mem_->stats(); }

  ArrivalFeed feed_;
  SimConfig cfg_;
  std::unique_ptr<MemorySystem> mem_;
};

TEST_F(MultiChannelTest, BusesAreIndependent) {
  // Two same-instant reads on different channels both issue at t = 0;
  // on one channel the second would wait for the 4 ns burst slot.
  feed_.add(tx(1, 0, 0, 0, 1, AccessType::kRead, 0));
  feed_.add(tx(2, 1, 0, 0, 1, AccessType::kRead, 0));
  run_to_drain();
  ASSERT_EQ(stats().demand_read_latency.count(), 2u);
  EXPECT_EQ(stats().demand_read_latency.min(), 44u);
  EXPECT_EQ(stats().demand_read_latency.max(), 44u);
}

TEST_F(MultiChannelTest, SameChannelStillSerializesOnTheBus) {
  feed_.add(tx(1, 0, 0, 0, 1, AccessType::kRead, 0));
  feed_.add(tx(2, 0, 1, 1, 1, AccessType::kRead, 0));
  run_to_drain();
  EXPECT_EQ(stats().demand_read_latency.min(), 44u);
  EXPECT_EQ(stats().demand_read_latency.max(), 48u);  // +4 ns bus slot
}

TEST_F(MultiChannelTest, ChannelsAreDistinctResources) {
  AddressMapper mapper(cfg_.geom);
  DecodedAddr a{0, 1, 1, 3, 5};
  DecodedAddr b{1, 1, 1, 3, 5};
  EXPECT_NE(mapper.encode(a), mapper.encode(b));
  EXPECT_NE(mapper.flat_bank(a), mapper.flat_bank(b));
  EXPECT_EQ(mapper.decode(mapper.encode(b)).channel, 1u);
}

TEST_F(MultiChannelTest, ControllersOwnOnlyTheirChannelsBanks) {
  // 2 channels x 2 ranks x 2 banks = 8 main banks, 4 per controller.
  EXPECT_EQ(mem_->num_channels(), 2u);
  EXPECT_EQ(mem_->channel(0).banks().size(), 4u);
  EXPECT_EQ(mem_->channel(1).banks().size(), 4u);
  // The end-of-run snapshot re-assembles them in global-resource order.
  MetricsRegistry reg;
  EXPECT_EQ(finish(reg).banks.size(), 8u);
}

TEST_F(MultiChannelTest, SaturatedChannelDoesNotBackpressureIdleChannel) {
  // Fill channel 0 to its per-channel capacity with same-bank writes.
  cfg_.queue_capacity = 4;
  mem_ = std::make_unique<MemorySystem>(cfg_);
  for (std::uint64_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(mem_->can_accept(DecodedAddr{0, 0, 0, 1, 0}));
    mem_->enqueue(tx(i + 1, 0, 0, 0, 1, AccessType::kWrite, 0));
  }
  // Channel 0 is saturated; channel 1 still accepts.
  EXPECT_FALSE(mem_->can_accept(DecodedAddr{0, 0, 0, 1, 0}));
  EXPECT_TRUE(mem_->can_accept(DecodedAddr{1, 0, 0, 1, 0}));

  // A read on the idle channel completes at its natural (unloaded)
  // latency, undelayed by the saturated sibling.
  mem_->enqueue(tx(100, 1, 0, 0, 1, AccessType::kRead, 0));
  run_to_drain();
  ASSERT_EQ(stats().demand_read_latency.count(), 1u);
  EXPECT_EQ(stats().demand_read_latency.min(), 44u);  // 27 + 13 + 4, no queue
}

TEST_F(MultiChannelTest, PerChannelBusBusyTimesSumToGlobalFigure) {
  // Load both channels; every issued access holds its channel's bus for
  // one 4 ns burst, so the per-channel busy times must sum to the figure
  // the old single fused controller reported: total issued ops x burst.
  for (std::uint64_t i = 0; i < 6; ++i) {
    feed_.add(tx(2 * i + 1, 0, i % 2, (i / 2) % 2, 1 + (i % 3),
                 i % 2 == 0 ? AccessType::kRead : AccessType::kWrite, 10 * i));
    feed_.add(tx(2 * i + 2, 1, (i + 1) % 2, i % 2, 1 + (i % 3),
                 i % 2 == 0 ? AccessType::kWrite : AccessType::kRead, 10 * i));
  }
  run_to_drain();
  MetricsRegistry reg;
  std::uint64_t ops = 0;
  for (const auto& b : finish(reg).banks) ops += b.ops;
  const Tick global_figure = ops * cfg_.timing.burst_ns();
  EXPECT_GT(global_figure, 0u);
  EXPECT_EQ(mem_->channel(0).bus_busy_time() + mem_->channel(1).bus_busy_time(),
            global_figure);
  // Both channels actually carried traffic.
  EXPECT_GT(mem_->channel(0).bus_busy_time(), 0u);
  EXPECT_GT(mem_->channel(1).bus_busy_time(), 0u);
}

TEST_F(MultiChannelTest, PerChannelMetricsPublished) {
  feed_.add(tx(1, 0, 0, 0, 1, AccessType::kRead, 0));
  feed_.add(tx(2, 1, 0, 0, 1, AccessType::kRead, 0));
  run_to_drain();
  MetricsRegistry reg;
  finish(reg);
  EXPECT_EQ(reg.counter("ch0.bus_busy_ns"), 4u);
  EXPECT_EQ(reg.counter("ch1.bus_busy_ns"), 4u);
  EXPECT_EQ(reg.counter("bus.busy_ns"), 8u);
  EXPECT_EQ(reg.counter("ch0.max_queue_depth"), 1u);
  EXPECT_EQ(reg.counter("sim.end_time"), 44u);
}

TEST_F(MultiChannelTest, RefreshCoversBothChannels) {
  build("refresh");
  // Drive one row to the limit on each channel.
  for (unsigned ch = 0; ch < 2; ++ch) {
    feed_.add(tx(1 + ch * 2, ch, 0, 0, 3, AccessType::kWrite, ch * 100));
    feed_.add(tx(2 + ch * 2, ch, 0, 0, 3, AccessType::kWrite, 600 + ch * 100));
  }
  run_to_drain(20000);
  // Each channel's refresh engine reaches its own pending row.
  EXPECT_EQ(mem_->arch().counters().get("refresh.rows"), 2u);
  EXPECT_GE(mem_->channel(0).refresh_engine().commands(), 1u);
  EXPECT_GE(mem_->channel(1).refresh_engine().commands(), 1u);
}

TEST(MultiChannelSim, EndToEndRun) {
  SimConfig cfg = paper_config();
  cfg.geom.channels = 2;
  cfg.geom.ranks = 8;  // keep total ranks comparable
  cfg.arch.composition = arch_preset("refresh");
  const SimResult r =
      run({cfg, TraceSpec::profile(*find_profile("401.bzip2"), 8000),
           RunOptions::with_seed(5)});
  EXPECT_EQ(r.injected_reads + r.injected_writes, 8000u);
  EXPECT_GT(r.refresh_commands, 0u);
  EXPECT_GT(r.avg_write_ns(), 0.0);
  // Per-channel breakdowns surface in the collected metrics.
  EXPECT_GT(r.metrics.counter("ch0.bus_busy_ns"), 0u);
  EXPECT_GT(r.metrics.counter("ch1.bus_busy_ns"), 0u);
  EXPECT_EQ(r.metrics.counter("ch0.bus_busy_ns") +
                r.metrics.counter("ch1.bus_busy_ns"),
            r.metrics.counter("bus.busy_ns"));
}

}  // namespace
}  // namespace wompcm
