// SimService (sim/service.h): session lifecycle edges, back-pressure
// partial-accept, chunking invariance, and the headline determinism
// contract — K concurrent sessions produce the bit-identical result of a
// batch run over the pre-merged trace, across scan modes, worker counts,
// and fault injection.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/experiment.h"
#include "sim/service.h"
#include "sim/simulator.h"
#include "trace/mix.h"
#include "trace/profiles.h"
#include "trace/synthetic.h"
#include "trace/trace.h"

namespace wompcm {
namespace {

SimConfig small_config(unsigned channels = 2) {
  SimConfig cfg;
  cfg.geom.channels = channels;
  cfg.geom.ranks = 2;
  cfg.geom.banks_per_rank = 4;
  cfg.geom.rows_per_bank = 128;
  cfg.geom.cols_per_row = 128;
  cfg.warmup_accesses = 0;
  return cfg;
}

// A short hand-built stream with same-instant bursts (gap 0) and idle
// stretches — the shapes that stress the sealed-instant merge.
std::vector<TraceRecord> burst_records(std::size_t n, std::uint64_t seed) {
  std::vector<TraceRecord> out;
  out.reserve(n);
  std::uint64_t x = seed * 2654435761u + 1;
  for (std::size_t i = 0; i < n; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    TraceRecord r;
    r.gap = (x >> 33) % 4 == 0 ? 0 : (x >> 40) % 50;
    r.type = (x >> 13) % 3 == 0 ? AccessType::kWrite : AccessType::kRead;
    r.addr = (x >> 7) % (1u << 22);
    out.push_back(r);
  }
  return out;
}

// Every deterministic field of two results must be identical; phase
// counters are wall-clock and excluded by design.
void expect_identical(const SimResult& a, const SimResult& b) {
  EXPECT_EQ(a.arch_name, b.arch_name);
  EXPECT_EQ(a.end_time, b.end_time);
  EXPECT_EQ(a.injected_reads, b.injected_reads);
  EXPECT_EQ(a.injected_writes, b.injected_writes);
  EXPECT_EQ(a.deferred_injections, b.deferred_injections);
  EXPECT_EQ(a.refresh_commands, b.refresh_commands);
  EXPECT_EQ(a.refresh_rows, b.refresh_rows);
  EXPECT_EQ(a.stats.counters.all(), b.stats.counters.all());
  EXPECT_EQ(a.stats.demand_read_latency.count(),
            b.stats.demand_read_latency.count());
  EXPECT_EQ(a.stats.demand_read_latency.sum(),
            b.stats.demand_read_latency.sum());
  EXPECT_EQ(a.stats.demand_read_latency.max(),
            b.stats.demand_read_latency.max());
  EXPECT_EQ(a.stats.demand_write_latency.count(),
            b.stats.demand_write_latency.count());
  EXPECT_EQ(a.stats.demand_write_latency.sum(),
            b.stats.demand_write_latency.sum());
  EXPECT_EQ(a.stats.demand_write_latency.max(),
            b.stats.demand_write_latency.max());
  EXPECT_EQ(a.fault_injected, b.fault_injected);
  EXPECT_EQ(a.fault_retries, b.fault_retries);
  EXPECT_EQ(a.fault_demoted_writes, b.fault_demoted_writes);
  EXPECT_EQ(a.fault_remapped_rows, b.fault_remapped_rows);
  EXPECT_EQ(a.fault_dead_rows, b.fault_dead_rows);
  EXPECT_DOUBLE_EQ(a.energy_write_pj, b.energy_write_pj);
  EXPECT_DOUBLE_EQ(a.energy_read_pj, b.energy_read_pj);
  EXPECT_DOUBLE_EQ(a.max_line_wear, b.max_line_wear);
  ASSERT_EQ(a.banks.size(), b.banks.size());
  for (std::size_t i = 0; i < a.banks.size(); ++i) {
    EXPECT_EQ(a.banks[i].busy_time, b.banks[i].busy_time);
    EXPECT_EQ(a.banks[i].ops, b.banks[i].ops);
    EXPECT_EQ(a.banks[i].row_hits, b.banks[i].row_hits);
  }
}

// The service registry must equal the batch registry once its additive
// per-stream slice ("stream<N>.*") is stripped.
void expect_registry_identical_modulo_streams(const MetricsRegistry& batch,
                                              const MetricsRegistry& service) {
  auto svc = service.all();  // copy: name-sorted map
  for (auto it = svc.begin(); it != svc.end();) {
    it = it->first.rfind("stream", 0) == 0 ? svc.erase(it) : std::next(it);
  }
  const auto& base = batch.all();
  ASSERT_EQ(base.size(), svc.size());
  auto bi = base.begin();
  for (auto si = svc.begin(); si != svc.end(); ++si, ++bi) {
    EXPECT_EQ(bi->first, si->first);
    EXPECT_EQ(bi->second.kind, si->second.kind) << bi->first;
    EXPECT_EQ(bi->second.count, si->second.count) << bi->first;
    EXPECT_DOUBLE_EQ(bi->second.value, si->second.value) << bi->first;
  }
}

// Feeds one record vector through a single session in `chunk`-sized
// submits, resubmitting back-pressured tails, and drains.
SimResult drive_one(const SimConfig& cfg, const std::vector<TraceRecord>& recs,
                    std::size_t chunk, std::size_t capacity = 4096) {
  SimService svc(cfg);
  StreamSpec spec;
  spec.capacity = capacity;
  const SessionId id = svc.open_session(spec);
  std::size_t at = 0;
  while (at < recs.size()) {
    const std::size_t n = std::min(chunk, recs.size() - at);
    at += svc.submit(id, recs.data() + at, n).accepted;
    svc.step();
  }
  svc.close_session(id);
  return svc.drain();
}

TEST(ServiceLifecycle, SubmitAfterCloseThrows) {
  SimService svc(small_config());
  const SessionId id = svc.open_session();
  const auto recs = burst_records(4, 1);
  svc.close_session(id);
  EXPECT_THROW(svc.submit(id, recs.data(), recs.size()),
               std::invalid_argument);
}

TEST(ServiceLifecycle, CloseTwiceThrows) {
  SimService svc(small_config());
  const SessionId id = svc.open_session();
  svc.close_session(id);
  EXPECT_THROW(svc.close_session(id), std::invalid_argument);
}

TEST(ServiceLifecycle, UnknownSessionThrows) {
  SimService svc(small_config());
  const auto recs = burst_records(1, 1);
  EXPECT_THROW(svc.submit(99, recs.data(), 1), std::invalid_argument);
  EXPECT_THROW(svc.poll(99), std::invalid_argument);
  EXPECT_THROW(svc.close_session(99), std::invalid_argument);
}

TEST(ServiceLifecycle, ZeroRecordSubmitIsANoOp) {
  SimService svc(small_config());
  const SessionId id = svc.open_session();
  EXPECT_EQ(svc.submit(id, nullptr, 0).accepted, 0u);
  const StreamStats s = svc.poll(id);
  EXPECT_EQ(s.submitted, 0u);
  EXPECT_EQ(s.rejected, 0u);
  svc.close_session(id);
  const SimResult r = svc.drain();
  EXPECT_EQ(r.injected_reads + r.injected_writes, 0u);
  EXPECT_EQ(r.end_time, 0u);
}

TEST(ServiceLifecycle, DrainWithOpenSessionThrows) {
  SimService svc(small_config());
  svc.open_session();
  EXPECT_THROW(svc.drain(), std::logic_error);
}

TEST(ServiceLifecycle, FinishedServiceRejectsEverything) {
  SimService svc(small_config());
  const SessionId id = svc.open_session();
  svc.close_session(id);
  (void)svc.drain();
  EXPECT_THROW(svc.open_session(), std::logic_error);
  EXPECT_THROW(svc.step(), std::logic_error);
  EXPECT_THROW(svc.drain(), std::logic_error);
}

// A zero-capacity queue never accepts a transaction and a zero injection
// block never fetches a record, so construction refuses both by name
// rather than letting the event loop spin.
TEST(ServiceLifecycle, ZeroQueueCapacityOrInjectionBlockThrows) {
  for (const std::string key : {"queue_capacity", "injection_block"}) {
    SimConfig cfg = small_config();
    (key == "queue_capacity" ? cfg.queue_capacity : cfg.injection_block) = 0;
    try {
      SimService svc(cfg);
      ADD_FAILURE() << key << "=0 accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(key), std::string::npos)
          << e.what();
    }
  }
  // A zero-capacity session buffer could never accept a record either.
  SimService svc(small_config());
  StreamSpec spec;
  spec.capacity = 0;
  try {
    svc.open_session(spec);
    ADD_FAILURE() << "capacity=0 accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("capacity"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(svc.open_sessions(), 0u);
}

TEST(ServiceBackPressure, PartialAcceptThenResubmitDeliversAll) {
  const auto recs = burst_records(64, 3);
  SimService svc(small_config());
  StreamSpec spec;
  spec.capacity = 8;  // force partial accepts
  const SessionId id = svc.open_session(spec);

  const Accepted first = svc.submit(id, recs.data(), recs.size());
  EXPECT_EQ(first.accepted, 8u);  // prefix bounded by capacity, no drops
  EXPECT_EQ(svc.poll(id).rejected, recs.size() - 8u);

  std::size_t at = first.accepted;
  while (at < recs.size()) {
    svc.step();
    const std::size_t got =
        svc.submit(id, recs.data() + at, recs.size() - at).accepted;
    at += got;
  }
  svc.close_session(id);
  const SimResult r = svc.drain();
  EXPECT_EQ(r.injected_reads + r.injected_writes, recs.size());

  // The tight ring changes when records reach the service, never what the
  // simulation computes: a roomy one-shot feed is bit-identical.
  expect_identical(r, drive_one(small_config(), recs, recs.size()));
}

TEST(ServiceDeterminism, ChunkingInvariance) {
  // The same stream fed record by record, in uneven chunks, or all at
  // once reconstructs the same instants — including gap-0 bursts split
  // across submit boundaries.
  const auto recs = burst_records(200, 5);
  const SimConfig cfg = small_config();
  const SimResult whole = drive_one(cfg, recs, recs.size());
  expect_identical(whole, drive_one(cfg, recs, 1));
  expect_identical(whole, drive_one(cfg, recs, 7));
  expect_identical(whole, drive_one(cfg, recs, 33));
}

TEST(ServiceDeterminism, MatchesBatchRunOverSameRecords) {
  const auto recs = burst_records(300, 9);
  const SimConfig cfg = small_config();
  VectorTraceSource src(recs);
  const SimResult batch = SimService(cfg).run_to_completion(src);
  expect_identical(batch, drive_one(cfg, recs, 17));
}

TEST(ServiceSessions, InterleavedOpenCloseMidRun) {
  const SimConfig cfg = small_config();
  SimService svc(cfg);
  const auto recs_a = burst_records(120, 11);
  const auto recs_b = burst_records(80, 13);

  const SessionId a = svc.open_session({});
  std::size_t at_a = 0;
  while (at_a < 60) {
    at_a += svc.submit(a, recs_a.data() + at_a, 60 - at_a).accepted;
    svc.step();
  }
  const Tick mid = svc.now();

  // A session opened mid-run joins at the current instant: its clock can
  // never gate instants the merge already sealed.
  const SessionId b = svc.open_session({});
  EXPECT_GE(svc.poll(b).clock, mid);
  EXPECT_EQ(svc.open_sessions(), 2u);

  std::size_t at_b = 0;
  while (at_a < recs_a.size() || at_b < recs_b.size()) {
    if (at_a < recs_a.size()) {
      at_a += svc.submit(a, recs_a.data() + at_a, recs_a.size() - at_a)
                  .accepted;
    }
    if (at_b < recs_b.size()) {
      at_b += svc.submit(b, recs_b.data() + at_b, recs_b.size() - at_b)
                  .accepted;
    }
    svc.step();
  }
  // B alone gates the merge now: its buffer is drained and it is still
  // open, so the service must stop at B's arrival frontier and wait.
  svc.close_session(a);
  const StepResult gated = svc.step();
  EXPECT_TRUE(gated.starved);
  // The last close un-gates everything; the next step runs to quiescence.
  svc.close_session(b);
  const StepResult after = svc.step();
  EXPECT_FALSE(after.starved);

  const SimResult r = svc.drain();
  EXPECT_EQ(r.injected_reads + r.injected_writes,
            recs_a.size() + recs_b.size());
  EXPECT_TRUE(r.metrics.has("stream0.submitted"));
  EXPECT_EQ(r.metrics.counter("stream0.submitted"), recs_a.size());
  EXPECT_EQ(r.metrics.counter("stream1.submitted"), recs_b.size());
}

TEST(ServiceSessions, PollReportsPerStreamBooks) {
  const SimConfig cfg = small_config();
  SimService svc(cfg);
  const SessionId id = svc.open_session({.name = "core0"});
  const auto recs = burst_records(150, 17);
  std::size_t at = 0;
  while (at < recs.size()) {
    at += svc.submit(id, recs.data() + at, recs.size() - at).accepted;
    svc.step();
  }
  svc.close_session(id);

  const StreamStats s = svc.poll(id);
  EXPECT_EQ(s.name, "core0");
  EXPECT_FALSE(s.open);
  EXPECT_EQ(s.submitted, recs.size());
  EXPECT_EQ(s.injected_reads + s.injected_writes + s.buffered, recs.size());
  // Per-access tagging is on by default: demand completions are sliced.
  EXPECT_GT(s.completed_reads + s.completed_writes, 0u);
  EXPECT_GT(s.avg_write_ns, 0.0);

  const SimResult r = svc.drain();
  EXPECT_EQ(r.metrics.counter("stream0.reads"),
            r.stats.demand_read_latency.count());
  EXPECT_EQ(r.metrics.counter("stream0.writes"),
            r.stats.demand_write_latency.count());
}

// The headline contract: K live sessions, fed incrementally, produce the
// bit-identical result of one batch run over the pre-merged mix, faults on
// and off (the parameter).
class ServiceEquivalence : public testing::TestWithParam<bool> {};

TEST_P(ServiceEquivalence, KSessionsMatchPreMergedBatch) {
  const bool faults = GetParam();
  constexpr unsigned kStreams = 4;
  constexpr std::uint64_t kPerStream = 1200;
  constexpr std::uint64_t kSeed = 42;

  SimConfig cfg = small_config(/*channels=*/4);
  cfg.arch.composition = arch_preset("refresh");
  cfg.warmup_accesses = 200;  // warmup ids must agree in merge order too
  if (faults) {
    cfg.fault.enabled = true;
    cfg.fault.seed = 7;
    cfg.fault.initial_wear = 0.9;
  }
  const std::vector<WorkloadProfile> profiles = benchmark_profiles();
  auto stream_source = [&](unsigned s) {
    return std::make_unique<SyntheticTraceSource>(
        profiles[s % profiles.size()], cfg.geom,
        kSeed ^ (0x9e3779b97f4a7c15ULL * (s + 1)), kPerStream);
  };

  // Batch reference: the pre-merged mix through the serial engine.
  std::vector<std::unique_ptr<TraceSource>> parts;
  for (unsigned s = 0; s < kStreams; ++s) parts.push_back(stream_source(s));
  MixTraceSource mix(std::move(parts));
  const SimResult batch = SimService(cfg).run_to_completion(mix);

  // Service run: one live session per stream, chunked submits under
  // back-pressure, arrivals merged by the service itself.
  SimService svc(cfg);
  struct Feed {
    std::unique_ptr<TraceSource> src;
    SessionId id = 0;
    std::vector<TraceRecord> buf;
    std::size_t off = 0;
    bool eof = false;
    bool closed = false;
  };
  constexpr std::size_t kChunk = 96;
  std::vector<Feed> feeds(kStreams);
  for (unsigned s = 0; s < kStreams; ++s) {
    feeds[s].src = stream_source(s);
    StreamSpec spec;
    spec.name = "core" + std::to_string(s);
    spec.capacity = 2 * kChunk;
    feeds[s].id = svc.open_session(spec);
  }
  unsigned live = kStreams;
  while (live > 0) {
    for (Feed& fd : feeds) {
      if (fd.closed) continue;
      if (fd.off == fd.buf.size() && !fd.eof) {
        fd.buf.resize(kChunk);
        const std::size_t n = fd.src->next_block(fd.buf.data(), kChunk);
        fd.buf.resize(n);
        fd.off = 0;
        fd.eof = n < kChunk;
      }
      if (fd.off < fd.buf.size()) {
        fd.off +=
            svc.submit(fd.id, fd.buf.data() + fd.off, fd.buf.size() - fd.off)
                .accepted;
      }
      if (fd.eof && fd.off == fd.buf.size()) {
        svc.close_session(fd.id);
        fd.closed = true;
        --live;
      }
    }
    svc.step();
  }
  const SimResult service = svc.drain();

  expect_identical(batch, service);
  expect_registry_identical_modulo_streams(batch.metrics, service.metrics);

  // The per-stream slice is complete: session counts sum to the totals.
  std::uint64_t submitted = 0;
  for (unsigned s = 0; s < kStreams; ++s) {
    submitted += service.metrics.counter(stream_metric(s, "submitted"));
  }
  EXPECT_EQ(submitted, static_cast<std::uint64_t>(kStreams) * kPerStream);
}

INSTANTIATE_TEST_SUITE_P(
    Faults, ServiceEquivalence, testing::Bool(),
    [](const testing::TestParamInfo<bool>& info) {
      return std::string(info.param ? "faults" : "nofaults");
    });

}  // namespace
}  // namespace wompcm
