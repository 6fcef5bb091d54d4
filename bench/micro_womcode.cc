// Microbenchmarks (google-benchmark): throughput of the WOM-code layer and
// the simulation substrate — encode/decode, page codec, generation
// tracking, Zipf sampling, trace generation, and end-to-end simulation.

#include <benchmark/benchmark.h>

#include "arch/row_table.h"
#include "common/rng.h"
#include "sim/experiment.h"
#include "trace/profiles.h"
#include "wom/inverted_code.h"
#include "wom/page_codec.h"
#include "wom/registry.h"
#include "wom/rs_code.h"

namespace {

using namespace wompcm;

void BM_RsEncodeFirst(benchmark::State& state) {
  RivestShamirCode code;
  const BitVec init = code.initial_state();
  unsigned x = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(code.encode(x & 3, 0, init));
    ++x;
  }
}
BENCHMARK(BM_RsEncodeFirst);

void BM_RsEncodeSecond(benchmark::State& state) {
  RivestShamirCode code;
  const BitVec first = RivestShamirCode::first_pattern(1);
  unsigned x = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(code.encode(x & 3, 1, first));
    ++x;
  }
}
BENCHMARK(BM_RsEncodeSecond);

void BM_RsDecode(benchmark::State& state) {
  RivestShamirCode code;
  const BitVec pat = RivestShamirCode::second_pattern(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(code.decode(pat));
  }
}
BENCHMARK(BM_RsDecode);

void BM_PageCodecWrite(benchmark::State& state) {
  const auto bits = static_cast<std::size_t>(state.range(0));
  PageCodec page(make_code("rs23-inv"), bits);
  Rng rng(7);
  BitVec data(bits);
  for (std::size_t i = 0; i < bits; ++i) data.set(i, rng.next_bool(0.5));
  for (auto _ : state) {
    benchmark::DoNotOptimize(page.write(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bits / 8));
}
BENCHMARK(BM_PageCodecWrite)->Arg(512)->Arg(4096)->Arg(32768);

// The sectioned families behind the same streaming page surface. Two
// alternating payloads keep consecutive writes from degenerating into
// no-ops; polar takes the virtual encode path (no LUT at n = 128), tsc
// layers replica selection over the base code's LUT.
void BM_PageCodecWriteFamily(benchmark::State& state, const char* name) {
  const auto bits = static_cast<std::size_t>(state.range(0));
  PageCodec page(make_block_codec(name), bits);
  Rng rng(7);
  BitVec a(bits), b(bits);
  for (std::size_t i = 0; i < bits; ++i) a.set(i, rng.next_bool(0.5));
  for (std::size_t i = 0; i < bits; ++i) b.set(i, rng.next_bool(0.5));
  bool flip = false;
  for (auto _ : state) {
    benchmark::DoNotOptimize(page.write(flip ? b : a));
    flip = !flip;
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bits / 8));
}
BENCHMARK_CAPTURE(BM_PageCodecWriteFamily, polar_m7, "polar-m7-inv")
    ->Arg(512)
    ->Arg(4096);
BENCHMARK_CAPTURE(BM_PageCodecWriteFamily, tsc_rs23x4, "tsc-rs23x4-inv")
    ->Arg(512)
    ->Arg(4096);

// Generation-aware read path of the replica family (the decode must pick
// the replica the current generation wrote).
void BM_PageCodecReadTsc(benchmark::State& state) {
  const std::size_t bits = 4096;
  PageCodec page(make_block_codec("tsc-rs23x4-inv"), bits);
  Rng rng(9);
  BitVec data(bits);
  for (std::size_t i = 0; i < bits; ++i) data.set(i, rng.next_bool(0.5));
  for (int i = 0; i < 3; ++i) page.write(data);  // land inside replica 1
  BitVec out;
  page.read_into(out);
  for (auto _ : state) {
    page.read_into(out);
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bits / 8));
}
BENCHMARK(BM_PageCodecReadTsc);

// One WOM-coded write's generation update: claim the row (one hash
// lookup), then record the write under a t = 2 code.
void BM_RowTableRecordWrite(benchmark::State& state) {
  RowTable rows(256, /*generations=*/true, /*fault_states=*/false);
  Rng rng(11);
  for (auto _ : state) {
    const std::uint32_t id = rows.claim(rng.next_below(4096));
    benchmark::DoNotOptimize(rows.record_write(
        id, static_cast<unsigned>(rng.next_below(256)), 2));
  }
}
BENCHMARK(BM_RowTableRecordWrite);

void BM_ZipfSample(benchmark::State& state) {
  ZipfSampler zipf(1u << 20, 1.1);
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.sample(rng));
  }
}
BENCHMARK(BM_ZipfSample);

void BM_SyntheticTrace(benchmark::State& state) {
  const auto profile = *find_profile("401.bzip2");
  const MemoryGeometry geom;
  SyntheticTraceSource src(profile, geom, 17, ~std::uint64_t{0});
  for (auto _ : state) {
    benchmark::DoNotOptimize(src.next());
  }
}
BENCHMARK(BM_SyntheticTrace);

void BM_SimulateAccesses(benchmark::State& state) {
  const auto profile = *find_profile("456.hmmer");
  const auto accesses = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    SimConfig cfg = paper_config();
    cfg.arch.composition = arch_preset("refresh");
    benchmark::DoNotOptimize(run({cfg, TraceSpec::profile(profile, accesses),
                                  RunOptions::with_seed(42)}));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(accesses));
}
BENCHMARK(BM_SimulateAccesses)->Arg(10000)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
