// Allocation audit of the codec hot path and of architecture setup.
//
// Lives in its own test binary (womcode_pcm_alloc_tests) because it
// replaces the global allocator with a counting wrapper: steady-state
// PageCodec::write must perform zero heap allocations per access, which is
// what keeps the energy ablations and functional sweeps off the allocator.
// The wrapper also totals the bytes requested, which bounds what building
// an architecture costs before the first access.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>

#include "arch/arch.h"
#include "common/rng.h"
#include "controller/controller.h"
#include "controller/queues.h"
#include "sim/experiment.h"
#include "wom/page_codec.h"
#include "wom/registry.h"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::uint64_t> g_bytes{0};

void* counted_malloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_malloc(size); }
void* operator new[](std::size_t size) { return counted_malloc(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace wompcm {
namespace {

BitVec random_data(std::size_t bits, std::uint64_t seed) {
  Rng rng(seed);
  BitVec data(bits);
  for (std::size_t i = 0; i < bits; ++i) data.set(i, rng.next_bool(0.5));
  return data;
}

TEST(CodecAllocation, SteadyStateWriteIsAllocationFree) {
  constexpr std::size_t kBits = 4096;
  PageCodec page(make_code("rs23-inv"), kBits);
  // Two payloads so consecutive writes actually change wits; built before
  // the measured window.
  const BitVec a = random_data(kBits, 1);
  const BitVec b = random_data(kBits, 2);
  // Warm the scratch buffers and cross the first alpha-write so the window
  // covers true steady state (in-budget rewrites and alphas alike).
  for (int i = 0; i < 8; ++i) page.write((i & 1) ? b : a);

  const std::uint64_t before = g_allocations.load();
  for (int i = 0; i < 64; ++i) page.write((i & 1) ? b : a);
  const std::uint64_t after = g_allocations.load();
  EXPECT_EQ(after - before, 0u)
      << (after - before) << " allocations across 64 steady-state writes";
}

TEST(CodecAllocation, SteadyStateReadIntoIsAllocationFree) {
  constexpr std::size_t kBits = 4096;
  PageCodec page(make_code("rs23-inv"), kBits);
  const BitVec a = random_data(kBits, 3);
  page.write(a);
  BitVec out;
  page.read_into(out);  // sizes `out` once

  const std::uint64_t before = g_allocations.load();
  for (int i = 0; i < 64; ++i) page.read_into(out);
  const std::uint64_t after = g_allocations.load();
  EXPECT_EQ(after - before, 0u);
  EXPECT_EQ(out, a);
}

TEST(CodecAllocation, MarkerCodeWriteIsAllocationFree) {
  // A multi-write tabular code also has an encode table, so its steady
  // state is allocation-free too.
  constexpr std::size_t kBits = 1024;
  PageCodec page(make_code("marker-k2t4-inv"), kBits);
  const BitVec a = random_data(kBits, 4);
  const BitVec b = random_data(kBits, 5);
  for (int i = 0; i < 10; ++i) page.write((i & 1) ? b : a);

  const std::uint64_t before = g_allocations.load();
  for (int i = 0; i < 32; ++i) page.write((i & 1) ? b : a);
  const std::uint64_t after = g_allocations.load();
  EXPECT_EQ(after - before, 0u);
}

TEST(CodecAllocation, PolarSectionedWriteIsAllocationFree) {
  // The polar family takes the virtual encode path (no LUT at n = 128),
  // but encode_into works against caller-owned scratch with fixed-size
  // stack arrays, so the sectioned steady state stays off the allocator.
  constexpr std::size_t kBits = 512;
  PageCodec page(make_code("polar-m7-inv"), kBits);
  const BitVec a = random_data(kBits, 6);
  const BitVec b = random_data(kBits, 7);
  // Cross the first alpha re-init (t = 8) before the measured window.
  for (int i = 0; i < 10; ++i) page.write((i & 1) ? b : a);

  const std::uint64_t before = g_allocations.load();
  for (int i = 0; i < 32; ++i) page.write((i & 1) ? b : a);
  const std::uint64_t after = g_allocations.load();
  EXPECT_EQ(after - before, 0u)
      << (after - before) << " allocations across 32 polar writes";
}

TEST(CodecAllocation, TsConstrainedWriteAndReadAreAllocationFree) {
  // The time-space constrained codec layers replica selection over the
  // base code's LUT; its member scratch must keep the whole stack
  // allocation-free, reads included (decode is generation-aware).
  BlockCodecPtr codec = make_block_codec("tsc-rs23x4-inv");
  ASSERT_NE(codec, nullptr);
  const std::size_t bits = 8 * codec->section_data_bits();
  PageCodec page(std::move(codec), bits);
  const BitVec a = random_data(bits, 8);
  const BitVec b = random_data(bits, 9);
  // Cross the first alpha re-init (t = 8) before the measured window.
  for (int i = 0; i < 10; ++i) page.write((i & 1) ? b : a);
  BitVec out;
  page.read_into(out);

  const std::uint64_t before = g_allocations.load();
  for (int i = 0; i < 32; ++i) {
    page.write((i & 1) ? b : a);
    page.read_into(out);
  }
  const std::uint64_t after = g_allocations.load();
  EXPECT_EQ(after - before, 0u)
      << (after - before)
      << " allocations across 32 ts-constrained write/read pairs";
}

// The controller/queue steady state must be allocation-free per transaction
// too: the indexed queues, readiness bitmaps, event heap, counter slots,
// and the WOM/wear slab trackers all pre-reserve or bind on first touch, so
// once the working set is warm, enqueue -> schedule -> complete touches the
// allocator zero times. (WCPCM is exercised elsewhere; its victim
// write-backs spawn transactions, which is an allocation by design.)
TEST(ControllerAllocation, SteadyStateTransactionsAreAllocationFree) {
  MemoryGeometry geom;
  geom.channels = 1;
  geom.ranks = 2;
  geom.banks_per_rank = 2;
  geom.rows_per_bank = 16;
  geom.cols_per_row = 64;  // 8 lines/row

  ControllerConfig cfg;
  cfg.geom = geom;
  cfg.refresh.enabled = false;  // refresh bookkeeping is off the per-tx path
  ArchConfig acfg;
  acfg.composition = arch_preset("wom");

  SimStats stats;
  auto arch = std::make_unique<Architecture>(geom, cfg.timing, acfg);
  MemoryController ctrl(cfg, 0, *arch, stats);

  std::uint64_t id = 1;
  Tick now = 0;
  // One pass: reads and writes over a fixed (bank, row, line) working set,
  // run to drain. DecodedAddr::col is line-granular.
  auto pass = [&] {
    for (unsigned rank = 0; rank < geom.ranks; ++rank) {
      for (unsigned bank = 0; bank < geom.banks_per_rank; ++bank) {
        for (unsigned i = 0; i < 8; ++i) {
          Transaction t;
          t.id = id++;
          t.dec = DecodedAddr{0, rank, bank, i % 4, i % 8};
          t.arrival = now;
          t.type = (i & 1) ? AccessType::kWrite : AccessType::kRead;
          ctrl.enqueue(t);
        }
      }
    }
    ctrl.tick(now);
    for (;;) {
      const Tick t = ctrl.next_event_after(now);
      if (t == kNeverTick) break;
      now = t;
      ctrl.tick(now);
    }
    ASSERT_TRUE(ctrl.drained());
  };

  // Warmup: touch every row/line of the working set, cross the WOM rewrite
  // limit (alpha writes) several times so every counter slot, slab, queue
  // index, and event-heap high-water mark exists before the window.
  for (int i = 0; i < 16; ++i) pass();

  const std::uint64_t before = g_allocations.load();
  for (int i = 0; i < 8; ++i) pass();
  const std::uint64_t after = g_allocations.load();
  EXPECT_EQ(after - before, 0u)
      << (after - before) << " allocations across 8 steady-state passes";
}

// The scheduler's queues at capacity with the oldest entry stuck (its bank
// never frees up) while every other slot churns: push and take recycle
// slab slots and line-index cells without touching the allocator.
TEST(QueueAllocation, StuckHeadChurnAtCapacityIsAllocationFree) {
  constexpr std::size_t kCapacity = 64;
  const MemoryGeometry geom;
  TransactionQueue q;
  q.configure(16, kCapacity, &geom);
  std::uint64_t id = 1;
  auto push = [&] {
    Transaction tx;
    tx.id = id;
    tx.dec.col = static_cast<unsigned>(id % 97);
    tx.arrival = id;
    if (id % 3 == 0) {
      q.push(tx);
    } else {
      q.push(tx, static_cast<unsigned>(id % 16));
    }
    ++id;
  };
  for (std::size_t i = 0; i < kCapacity; ++i) push();

  const std::uint64_t before = g_allocations.load();
  for (int i = 0; i < 10000; ++i) {
    // Take the second-oldest or the newest entry, alternating.
    auto p = q.next(q.first());
    if (i & 1) {
      while (q.next(p) != TransactionQueue::kNoPos) p = q.next(p);
    }
    q.take(p);
    push();
  }
  const std::uint64_t after = g_allocations.load();
  EXPECT_EQ(after - before, 0u)
      << (after - before) << " allocations across 10000 push/take cycles";
  EXPECT_EQ(q.size(), kCapacity);
  EXPECT_EQ(q.at(q.first()).id, 1u);
}

// Building the paper WCPCM architecture (16 ranks x 32 banks x 32768 rows,
// one WOM-cache array per rank) sizes its per-row indexes up front but
// claims cache-row entries, wear and generation state only on first use,
// so setup stays a few MiB rather than one frame per cache row.
TEST(ArchitectureAllocation, PaperWcpcmSetupIsUnderFourMiB) {
  const SimConfig cfg = paper_config();
  ArchConfig acfg;
  acfg.composition = arch_preset("wcpcm");
  acfg.code = "rs23-inv";

  const std::uint64_t bytes_before = g_bytes.load();
  const std::uint64_t allocs_before = g_allocations.load();
  { const Architecture arch(cfg.geom, cfg.timing, acfg); }
  const std::uint64_t bytes = g_bytes.load() - bytes_before;
  EXPECT_LT(bytes, std::uint64_t{4} << 20)
      << bytes << " bytes in " << (g_allocations.load() - allocs_before)
      << " allocations";
}

}  // namespace
}  // namespace wompcm
