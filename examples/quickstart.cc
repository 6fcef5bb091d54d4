// Quickstart: the layers of the library in ~100 lines.
//
//  1. Functional layer: encode/decode data under the inverted <2^2>^2/3
//     WOM-code with PageCodec and watch rewrites stay RESET-only.
//  2. Timing layer: run one synthetic benchmark through the four paper
//     architectures and compare average memory latencies.
//  3. Multi-channel: the same benchmark on a channels=2 platform, with the
//     per-channel breakdowns the metrics registry publishes for free.
//
// Usage: quickstart [accesses=N] [benchmark=NAME] [seed=S]

#include <cstdint>
#include <cstdio>
#include <exception>

#include "womcode.h"

using namespace wompcm;

namespace {

void functional_demo() {
  std::printf("== WOM-code functional demo (inverted <2^2>^2/3) ==\n");
  WomCodePtr code = make_code("rs23-inv");
  PageCodec page(code, /*data_bits=*/16);

  const BitVec a = BitVec::from_string("1010110100101101");
  const BitVec b = BitVec::from_string("0110001011010010");
  const BitVec c = BitVec::from_string("1111000011001100");

  for (const BitVec* data : {&a, &b, &c}) {
    const PageWriteResult r = page.write(*data);
    std::printf(
        "write: %-10s (%3zu SET pulses, %3zu RESET pulses), readback %s\n",
        to_string(r.write_class), r.set_pulses, r.reset_pulses,
        page.read() == *data ? "ok" : "MISMATCH");
  }
  std::printf("generation after 3 writes: %u (rewrite limit %u)\n\n",
              page.generation(), page.code().max_writes());
}

void timing_demo(const KeyValueConfig& args) {
  const std::string bench = args.get_string_or("benchmark", "464.h264ref");
  const auto accesses = static_cast<std::uint64_t>(
      args.get_int_in("accesses", 60000, 1, INT64_MAX));
  const auto seed =
      static_cast<std::uint64_t>(args.get_int_in("seed", 42, 0, INT64_MAX));

  const auto profile = find_profile(bench);
  if (!profile) {
    std::printf("unknown benchmark %s\n", bench.c_str());
    return;
  }
  std::printf("== Timing demo: %s, %llu accesses ==\n", bench.c_str(),
              static_cast<unsigned long long>(accesses));

  TextTable table({"architecture", "avg write ns", "avg read ns",
                   "alpha writes", "fast writes", "refresh cmds",
                   "overhead"});
  for (const ArchConfig& arch : paper_architectures()) {
    SimConfig cfg = paper_config();
    cfg.arch = arch;
    const SimResult r =
        run({cfg, TraceSpec::profile(*profile, accesses), RunOptions::with_seed(seed)});
    table.add_row({r.arch_name, TextTable::fmt(r.avg_write_ns(), 1),
                   TextTable::fmt(r.avg_read_ns(), 1),
                   std::to_string(r.stats.counters.get("writes.alpha")),
                   std::to_string(r.stats.counters.get("writes.fast")),
                   std::to_string(r.refresh_commands),
                   TextTable::fmt(r.capacity_overhead * 100.0, 1) + "%"});
  }
  std::printf("%s\n", table.to_text().c_str());
}

void multichannel_demo(const KeyValueConfig& args) {
  const std::string bench = args.get_string_or("benchmark", "464.h264ref");
  const auto accesses = static_cast<std::uint64_t>(
      args.get_int_in("accesses", 60000, 1, INT64_MAX));
  const auto seed =
      static_cast<std::uint64_t>(args.get_int_in("seed", 42, 0, INT64_MAX));

  // Split the paper platform's 16 ranks across two channels. Each channel
  // gets its own controller — queues, scheduler, refresh engine, data bus —
  // so channels never contend with each other.
  SimConfig cfg = paper_config();
  cfg.geom.channels = 2;
  cfg.geom.ranks = 8;
  cfg.arch.composition = arch_preset("refresh");
  const SimResult r = run(
      {cfg, TraceSpec::profile(*find_profile(bench), accesses), RunOptions::with_seed(seed)});

  std::printf("== Multi-channel demo: %s on channels=2 ==\n", bench.c_str());
  std::printf("avg write %.1f ns, avg read %.1f ns\n", r.avg_write_ns(),
              r.avg_read_ns());
  TextTable table({"channel", "bus busy ns", "max queue depth",
                   "refresh cmds", "deferred"});
  for (unsigned c = 0; c < cfg.geom.channels; ++c) {
    table.add_row(
        {std::to_string(c),
         std::to_string(r.metrics.counter(channel_metric(c, "bus_busy_ns"))),
         std::to_string(
             r.metrics.counter(channel_metric(c, "max_queue_depth"))),
         std::to_string(
             r.metrics.counter(channel_metric(c, "refresh.commands"))),
         std::to_string(
             r.metrics.counter(channel_metric(c, "deferred_injections")))});
  }
  std::printf("%s\n", table.to_text().c_str());
}

int quickstart_main(const KeyValueConfig& args) {
  functional_demo();
  timing_demo(args);
  multichannel_demo(args);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return quickstart_main(KeyValueConfig::from_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "quickstart: %s\n", e.what());
    return 1;
  }
}
