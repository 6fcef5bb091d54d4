// The repository benchmark: four workloads run through the simulator's
// public entry points (run(), run_sweep(), SimService), timed, checked,
// and reported as the metrics BENCHMARK.json names.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 --results DIR
//
// One run, in order:
//   1. set-up: the workload's construction up to its first submitted
//      record, repeated kSetupReps times (median -> setup_s);
//   2. the timed part: untraced repetitions of the whole workload for at
//      least S seconds and kMinTimedReps repetitions (medians ->
//      accesses_per_s and peak_rss_mb);
//   3. one traced repetition: the same calls with a span around each call
//      into a layer (spans.h), which gives the per-layer metrics;
//   4. correctness checks and the accuracy reference runs.
// With --trace 0 the last stdout line carries the end-to-end metrics, with
// --trace 1 the per-layer ones; both modes run every check. Every workload
// is a closed loop: one client thread feeds records as fast as the
// simulator takes them. README.md gives the reason for each workload.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <future>
#include <initializer_list>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "spans.h"
#include "womcode.h"

namespace {

using namespace wompcm;
using perfbench::now_ns;
using perfbench::Scope;
using perfbench::Tracer;

constexpr std::uint64_t kPaperLightAccesses = 4'000'000;
// Hot pages land on one bank in a seed-dependent place and that bank sets
// the saturated latency, so one long trace would make the simulated
// latencies swing by ~10% from seed to seed; independent traces average
// the placement out.
constexpr unsigned kSaturatedTraces = 32;
constexpr std::uint64_t kSaturatedAccesses = 2'000'000;
constexpr unsigned kServeStreams = 8;
// Polar line state costs ~2.8 KB of host memory per access (~585 MiB here).
constexpr std::uint64_t kServeAccessesPerStream = 100'000;
constexpr std::size_t kServeChunk = 256;
constexpr std::uint64_t kSweepAccessesPerCell = 200'000;
constexpr unsigned kAccuracyTraces = 8;
constexpr std::uint64_t kAccuracyAccesses = 125'000;
constexpr int kSetupReps = 51;
constexpr int kMinTimedReps = 3;

// The Fig. 5 architectures in paper_architectures() order, and the paper's
// normalized average latencies for them (EXPERIMENTS.md; plain PCM is the
// normalization base).
enum PaperArch : std::size_t { kPcm = 0, kWomPcm, kPcmRefresh, kWcpcm };
constexpr double kPaperWrite[4] = {1.0, 0.799, 0.451, 0.528};
constexpr double kPaperRead[4] = {1.0, 0.898, 0.521, 0.560};

struct MetricDef {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json's end_to_end and per_layer lists, in names and
// units; `run.py --smoke` checks that they do.
constexpr MetricDef kEndToEnd[] = {
    {"accesses_per_s", "acc/s"}, {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},      {"sim_read_ns", "ns"},
    {"sim_write_ns", "ns"},      {"paper_error", "ratio"},
};
constexpr MetricDef kPerLayer[] = {
    {"trace.next_block_s", "s"},
    {"trace.records", "count"},
    {"service.submit_s", "s"},
    {"service.step_s", "s"},
    {"service.drain_s", "s"},
    {"service.steps", "count"},
    {"service.step_us_p50", "us"},
    {"service.step_us_p99", "us"},
    {"service.rejected", "count"},
    {"service.starved_steps", "count"},
    {"controller.host_s", "s"},
    {"sim.deferred_injections", "count"},
    {"ctrl.max_queue_depth", "count"},
    {"ctrl.bus_busy_share", "share"},
    {"ctrl.row_hit_rate", "share"},
    {"ctrl.max_bank_utilization", "share"},
    {"ctrl.reads_forwarded", "count"},
    {"ctrl.refresh_pauses", "count"},
    {"refresh.commands", "count"},
    {"arch.fast_write_share", "share"},
    {"arch.alpha_writes", "count"},
    {"wcpcm.write_hit_rate", "share"},
    {"wcpcm.read_hit_rate", "share"},
    {"wcpcm.victims", "count"},
    {"rat.stale_pop_share", "share"},
    {"codec.host_s", "s"},
    {"codec.host_share", "share"},
    {"codec.lut_hit_rate", "share"},
    {"sweep.cell_s_p50", "s"},
    {"sweep.cell_s_max", "s"},
    {"sweep.worker_busy_share", "share"},
    {"backend.sharded_wall_ratio", "ratio"},
    {"bench.trace_overhead", "ratio"},
    {"check_failures", "share"},
};

double seconds_since(std::uint64_t t0) {
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

// Nearest-rank percentile, q in [0, 1]; 0 for no samples.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

unsigned sweep_jobs() { return std::min(4u, ThreadPool::hardware_workers()); }

// The process's peak resident set since the last call, in MiB: reads
// VmHWM, then resets it (Linux clear_refs), so each repetition of a
// workload reports its own peak.
double take_peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  double kib = -1.0;
  while (std::getline(status, line)) {
    if (line.starts_with("VmHWM:")) kib = std::stod(line.substr(6));
  }
  std::ofstream reset("/proc/self/clear_refs");
  reset << "5";
  reset.close();
  if (kib < 0.0 || !reset) {
    throw std::runtime_error("cannot read and reset the peak RSS in /proc");
  }
  return kib / 1024.0;
}

// ---------------------------------------------------------------------------
// Correctness checks.

class Checks {
 public:
  void expect(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      failures_.push_back(what);
      std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
    }
  }

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> failures_;
};

bool same_latency(const LatencyStats& a, const LatencyStats& b) {
  return a.count() == b.count() && a.sum() == b.sum() && a.min() == b.min() &&
         a.max() == b.max();
}

// The simulated (deterministic) part of two results: stats, counters,
// energy, wear, end time, and every published metric. Host phase times
// differ run to run and are left out. `with_streams` = false skips the
// "stream<N>.*" books, which only a session the client opened publishes
// (run()'s internal batch session does not).
bool same_result(const SimResult& a, const SimResult& b, bool with_streams,
                 std::string* why) {
  auto fail = [&](const std::string& what) {
    *why = what;
    return false;
  };
  if (a.arch_name != b.arch_name) return fail("arch_name");
  if (a.end_time != b.end_time) return fail("end_time");
  if (a.injected_reads != b.injected_reads ||
      a.injected_writes != b.injected_writes) {
    return fail("injections");
  }
  if (a.deferred_injections != b.deferred_injections) {
    return fail("deferred_injections");
  }
  if (a.refresh_commands != b.refresh_commands ||
      a.refresh_rows != b.refresh_rows) {
    return fail("refresh");
  }
  if (!same_latency(a.stats.demand_read_latency,
                    b.stats.demand_read_latency) ||
      !same_latency(a.stats.demand_write_latency,
                    b.stats.demand_write_latency) ||
      !same_latency(a.stats.internal_write_latency,
                    b.stats.internal_write_latency)) {
    return fail("latency stats");
  }
  if (a.stats.counters.all() != b.stats.counters.all()) {
    return fail("counters");
  }
  if (a.energy_read_pj != b.energy_read_pj ||
      a.energy_write_pj != b.energy_write_pj ||
      a.energy_refresh_pj != b.energy_refresh_pj) {
    return fail("energy");
  }
  if (a.max_line_wear != b.max_line_wear ||
      a.mean_line_wear != b.mean_line_wear ||
      a.lifetime_years != b.lifetime_years) {
    return fail("wear");
  }
  auto published = [&](const SimResult& r) {
    std::vector<std::pair<std::string, MetricsRegistry::Metric>> out;
    for (const auto& [name, m] : r.metrics.all()) {
      if (with_streams || !name.starts_with("stream")) out.emplace_back(name, m);
    }
    return out;
  };
  const auto ma = published(a);
  const auto mb = published(b);
  if (ma.size() != mb.size()) return fail("metric names");
  for (std::size_t i = 0; i < ma.size(); ++i) {
    const auto& [na, va] = ma[i];
    const auto& [nb, vb] = mb[i];
    if (na != nb || va.kind != vb.kind || va.count != vb.count ||
        va.value != vb.value) {
      return fail("metric " + na);
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// One execution of a workload.

struct Unit {
  std::vector<SimResult> results;  // one per run; sweep cells row-major
  std::vector<std::uint64_t> generated;  // records fed, per session
  std::vector<StreamStats> streams;      // poll() at each session's close
  std::uint64_t starved_steps = 0;
  double wall_s = 0.0;

  std::uint64_t accesses() const {
    std::uint64_t n = 0;
    for (const SimResult& r : results) n += r.injected_reads + r.injected_writes;
    return n;
  }
};

void expect_same(Checks& checks, const Unit& a, const Unit& b,
                 bool with_streams, const std::string& what) {
  if (a.results.size() != b.results.size()) {
    checks.expect(false, what + ": result count");
    return;
  }
  for (std::size_t i = 0; i < a.results.size(); ++i) {
    std::string why;
    const bool ok = same_result(a.results[i], b.results[i], with_streams, &why);
    checks.expect(ok, what + " (result " + std::to_string(i) + "): " + why);
  }
}

// ---------------------------------------------------------------------------
// A SimService client: it opens one session per stream and feeds each a
// chunk at a time, resubmitting whatever back-pressure bounces, with one
// step() per round over the sessions. Every call into the trace and service
// layers carries a span when a tracer is given.

struct Stream {
  TraceSpec trace;
  std::uint64_t seed = 0;
  StreamSpec spec;
};

struct SessionPlan {
  SimConfig cfg;
  std::vector<Stream> streams;
  std::size_t chunk = 64;
  unsigned jobs = 1;
};

// run()'s own batch session over one request: the same warmup resolution,
// block size and untagged session as SimService::run_to_completion, so the
// result is bit-identical to run(req).
SessionPlan batch_plan(const RunRequest& req) {
  SessionPlan plan;
  plan.cfg = req.config;
  if (!plan.cfg.warmup_accesses.has_value()) {
    plan.cfg.warmup_accesses = req.trace.accesses() / 5;
  }
  plan.chunk = std::max(1u, plan.cfg.injection_block);
  Stream s;
  s.trace = req.trace;
  s.seed = req.options.seed;
  s.spec.name = "batch";
  s.spec.capacity = plan.chunk;
  s.spec.per_access_stats = false;
  plan.streams.push_back(std::move(s));
  return plan;
}

class Client {
 public:
  Client(const SessionPlan& plan, Tracer* t, std::uint32_t parent)
      : chunk_(plan.chunk), t_(t), parent_(parent), svc_(plan.cfg, {plan.jobs}) {
    for (const Stream& s : plan.streams) {
      Feed fd;
      fd.src = s.trace.open(plan.cfg.geom, s.seed);
      fd.id = svc_.open_session(s.spec);
      feeds_.push_back(std::move(fd));
    }
    unit_.generated.assign(feeds_.size(), 0);
    unit_.streams.resize(feeds_.size());
  }

  // Refills the first session's chunk and submits it: the end of set-up.
  void feed_first() { feed(0); }

  Unit run() {
    std::size_t live = feeds_.size();
    while (live > 0) {
      for (std::size_t i = 0; i < feeds_.size(); ++i) {
        if (feeds_[i].closed) continue;
        feed(i);
        live -= feeds_[i].closed ? 1 : 0;
      }
      Scope s(t_, "service.step", parent_);
      unit_.starved_steps += svc_.step().starved ? 1 : 0;
    }
    Scope s(t_, "service.drain", parent_);
    unit_.results.push_back(svc_.drain());
    return std::move(unit_);
  }

 private:
  struct Feed {
    std::unique_ptr<TraceSource> src;
    SessionId id = 0;
    std::vector<TraceRecord> buf;
    std::size_t off = 0;  // accepted prefix of buf
    bool eof = false;
    bool closed = false;
  };

  void feed(std::size_t i) {
    Feed& fd = feeds_[i];
    if (fd.off == fd.buf.size() && !fd.eof) {
      fd.buf.resize(chunk_);
      std::size_t n = 0;
      {
        Scope s(t_, "trace.next_block", parent_);
        n = fd.src->next_block(fd.buf.data(), chunk_);
      }
      fd.buf.resize(n);
      fd.off = 0;
      fd.eof = n < chunk_;
      unit_.generated[i] += n;
    }
    if (fd.off < fd.buf.size()) {
      Scope s(t_, "service.submit", parent_);
      fd.off +=
          svc_.submit(fd.id, fd.buf.data() + fd.off, fd.buf.size() - fd.off)
              .accepted;
    }
    if (fd.eof && fd.off == fd.buf.size()) {
      {
        Scope s(t_, "service.poll", parent_);
        unit_.streams[i] = svc_.poll(fd.id);
      }
      svc_.close_session(fd.id);
      fd.closed = true;
    }
  }

  std::size_t chunk_;
  Tracer* t_;
  std::uint32_t parent_;
  SimService svc_;
  std::vector<Feed> feeds_;
  Unit unit_;
};

// Host time from the start of a session plan to its first submitted record.
double session_setup_s(const SessionPlan& plan) {
  const std::uint64_t t0 = now_ns();
  Client c(plan, nullptr, 0);
  c.feed_first();
  return seconds_since(t0);
}

Unit run_client(const SessionPlan& plan, Tracer* t) {
  const std::uint64_t t0 = now_ns();
  Scope root(t, "workload");
  Client c(plan, t, root.id());
  Unit u = c.run();
  u.wall_s = seconds_since(t0);
  return u;
}

// ---------------------------------------------------------------------------
// Accuracy against the paper.

// Mean demand read or write latency pooled over several results.
class PooledLatency {
 public:
  explicit PooledLatency(bool writes) : writes_(writes) {}
  void add(const SimResult& r) {
    const LatencyStats& l = writes_ ? r.stats.demand_write_latency
                                    : r.stats.demand_read_latency;
    sum_ += l.sum();
    count_ += static_cast<double>(l.count());
  }
  double mean() const { return ratio(sum_, count_); }

 private:
  bool writes_;
  double sum_ = 0.0;
  double count_ = 0.0;
};

// Mean absolute difference between the six Fig. 5 averages of `rows` and
// the paper's: write and read latency of wom-pcm, pcm-refresh and wcpcm,
// normalized to plain PCM per benchmark and averaged over benchmarks.
// Columns follow paper_architectures(); each run of `traces` consecutive
// rows is one benchmark, whose traces pool into its bar.
double fig5_error(const std::vector<SweepRow>& rows, std::size_t traces,
                  Checks& checks) {
  const std::size_t benchmarks = rows.size() / traces;
  auto pooled = [&](std::size_t b, std::size_t arch, bool writes) {
    PooledLatency p(writes);
    for (std::size_t i = b * traces; i < (b + 1) * traces; ++i) {
      p.add(rows[i].results.at(arch));
    }
    return p.mean();
  };
  double err = 0.0;
  for (std::size_t a = kWomPcm; a <= kWcpcm; ++a) {
    double w = 0.0, r = 0.0;
    for (std::size_t b = 0; b < benchmarks; ++b) {
      w += ratio(pooled(b, a, true), pooled(b, kPcm, true));
      r += ratio(pooled(b, a, false), pooled(b, kPcm, false));
    }
    w /= static_cast<double>(benchmarks);
    r /= static_cast<double>(benchmarks);
    checks.expect(std::isfinite(w) && w > 0.0 && std::isfinite(r) && r > 0.0,
                  "normalized Fig. 5 averages are finite and positive");
    err += std::abs(w - kPaperWrite[a]) + std::abs(r - kPaperRead[a]);
  }
  return err / 6.0;
}

// Fig. 5's experiment over a workload's benchmarks: each benchmark alone,
// as kAccuracyTraces independent traces, under the four paper
// architectures on the paper platform, on the sweep pool. One trace per
// benchmark would leave the WCPCM bars to where its hot pages happen to
// land, which moves them by ~10% from seed to seed.
double fig5_error_over(const std::vector<WorkloadProfile>& benchmarks,
                       std::uint64_t seed, Checks& checks) {
  std::vector<WorkloadProfile> traces;
  for (const WorkloadProfile& b : benchmarks) {
    for (unsigned k = 0; k < kAccuracyTraces; ++k) {
      WorkloadProfile p = b;
      p.name += '#';  // TraceSpec mixes the name into the seed
      p.name += std::to_string(k);
      traces.push_back(std::move(p));
    }
  }
  RunRequest base{paper_config(),
                  TraceSpec::profile(WorkloadProfile{}, kAccuracyAccesses),
                  RunOptions::with_seed(seed)};
  base.options.jobs = ParallelPolicy::with_jobs(sweep_jobs());
  return fig5_error(run_sweep(base, paper_architectures(), traces),
                    kAccuracyTraces, checks);
}

// ---------------------------------------------------------------------------
// Workloads.

class Workload {
 public:
  virtual ~Workload() = default;
  // Host seconds from the workload's start to its first submitted record.
  virtual double setup_s() const = 0;
  virtual Unit run_untraced() const = 0;
  virtual Unit run_traced(Tracer& t) const = 0;
  // Records the workload feeds the simulator in total.
  virtual std::uint64_t records() const = 0;
  // Whether traced and untraced runs both publish per-stream books.
  virtual bool streams_published() const { return false; }
  // Error against the paper's Fig. 5 averages: fig5_error_over() of the
  // workload's paper benchmarks (fig5-sweep: of its own cells).
  virtual double paper_error(const Unit& untraced, Checks& checks) const = 0;
  virtual void check(const Unit& /*untraced*/, const Unit& /*traced*/,
                     Checks& /*checks*/) const {}
  // Per-layer numbers only this workload produces (beyond the spans and
  // the published counts every workload reads).
  virtual void layers(const Unit& /*traced*/, const Tracer& /*tracer*/,
                      double /*untraced_wall_s*/, Checks& /*checks*/,
                      std::map<std::string, double>& /*out*/) const {}
};

// Independent traces of one traffic profile on the paper platform, each
// through run() in turn: paper-light (one trace) and saturated-wcpcm
// (several). `benchmark` is the paper profile the traffic derives from.
class Batch final : public Workload {
 public:
  Batch(PaperArch arch, WorkloadProfile benchmark,
        const WorkloadProfile& traffic, unsigned traces,
        std::uint64_t accesses, std::uint64_t seed)
      : base_{paper_config(),
              TraceSpec::profile(WorkloadProfile{}, accesses / traces),
              RunOptions::with_seed(seed)},
        arch_(arch),
        benchmark_(std::move(benchmark)) {
    for (unsigned k = 0; k < traces; ++k) {
      WorkloadProfile p = traffic;
      if (traces > 1) {  // TraceSpec mixes the name into the seed
        p.name += '-';
        p.name += std::to_string(k);
      }
      profiles_.push_back(std::move(p));
    }
  }

  double setup_s() const override {
    return session_setup_s(batch_plan(request(0)));
  }

  Unit run_untraced() const override {
    Unit u;
    const std::uint64_t t0 = now_ns();
    for (std::size_t i = 0; i < profiles_.size(); ++i) {
      u.results.push_back(run(request(i)));
    }
    u.wall_s = seconds_since(t0);
    return u;
  }

  Unit run_traced(Tracer& t) const override {
    Unit u;
    for (std::size_t i = 0; i < profiles_.size(); ++i) {
      Unit one = run_client(batch_plan(request(i)), &t);
      u.results.push_back(std::move(one.results.at(0)));
      u.generated.push_back(one.generated.at(0));
      u.streams.push_back(one.streams.at(0));
      u.starved_steps += one.starved_steps;
      u.wall_s += one.wall_s;
    }
    return u;
  }

  std::uint64_t records() const override {
    return profiles_.size() * base_.trace.accesses();
  }

  double paper_error(const Unit&, Checks& checks) const override {
    return fig5_error_over({benchmark_}, base_.options.seed, checks);
  }

 private:
  RunRequest request(std::size_t i) const {
    RunRequest req = base_;
    req.config.arch = paper_architectures().at(arch_);
    req.trace = TraceSpec::profile(profiles_.at(i), base_.trace.accesses());
    return req;
  }

  RunRequest base_;
  PaperArch arch_;
  WorkloadProfile benchmark_;
  std::vector<WorkloadProfile> profiles_;  // the traffic, one per trace
};

std::uint64_t stream_seed(std::uint64_t seed, unsigned s) {
  return seed ^ (0x9e3779b97f4a7c15ULL * (s + 1));
}

// Eight live SimService sessions: serve-polar.
class Serve final : public Workload {
 public:
  Serve(SimConfig cfg, std::uint64_t seed)
      : profiles_(benchmark_profiles().begin(),
                  benchmark_profiles().begin() + kServeStreams),
        seed_(seed) {
    plan_.cfg = std::move(cfg);
    plan_.cfg.warmup_accesses = kServeStreams * kServeAccessesPerStream / 5;
    plan_.chunk = kServeChunk;
    for (unsigned s = 0; s < kServeStreams; ++s) {
      Stream st;
      st.trace = TraceSpec::profile(profiles_[s], kServeAccessesPerStream);
      st.seed = stream_seed(seed, s);
      st.spec.name = profiles_[s].name;
      st.spec.capacity = 4 * kServeChunk;
      st.spec.per_access_stats = true;
      plan_.streams.push_back(std::move(st));
    }
  }

  double setup_s() const override { return session_setup_s(plan_); }
  Unit run_untraced() const override { return run_client(plan_, nullptr); }
  Unit run_traced(Tracer& t) const override { return run_client(plan_, &t); }
  std::uint64_t records() const override {
    return kServeStreams * kServeAccessesPerStream;
  }
  bool streams_published() const override { return true; }

  double paper_error(const Unit&, Checks& checks) const override {
    return fig5_error_over(profiles_, seed_, checks);
  }

  void check(const Unit& untraced, const Unit& traced,
             Checks& checks) const override {
    for (const Unit* u : {&untraced, &traced}) {
      const SimResult& r = u->results.at(0);
      std::uint64_t reads = 0, writes = 0, deferred = 0, done_r = 0,
                    done_w = 0;
      for (unsigned s = 0; s < kServeStreams; ++s) {
        const std::uint64_t submitted =
            r.metrics.counter(stream_metric(s, "submitted"));
        checks.expect(submitted == u->generated.at(s) &&
                          u->streams.at(s).submitted == u->generated.at(s),
                      "stream " + std::to_string(s) +
                          ": submitted equals generated");
        reads += r.metrics.counter(stream_metric(s, "injected_reads"));
        writes += r.metrics.counter(stream_metric(s, "injected_writes"));
        deferred += r.metrics.counter(stream_metric(s, "deferred_injections"));
        done_r += r.metrics.counter(stream_metric(s, "reads"));
        done_w += r.metrics.counter(stream_metric(s, "writes"));
      }
      checks.expect(reads == r.injected_reads && writes == r.injected_writes,
                    "stream injections sum to the aggregate");
      checks.expect(deferred == r.deferred_injections,
                    "stream deferrals sum to the aggregate");
      checks.expect(done_r == r.stats.demand_read_latency.count() &&
                        done_w == r.stats.demand_write_latency.count(),
                    "stream completions sum to the aggregate");
    }
  }

  void layers(const Unit& traced, const Tracer&, double untraced_wall_s,
              Checks& checks,
              std::map<std::string, double>& out) const override {
    // Sharding is informational only: its wall time spreads too widely
    // for a bound. Checked for bit-identity all the same.
    SessionPlan sharded = plan_;
    sharded.jobs = sweep_jobs();
    const Unit u = run_client(sharded, nullptr);
    expect_same(checks, traced, u, true, "sharded run matches serial");
    out["backend.sharded_wall_ratio"] = ratio(u.wall_s, untraced_wall_s);
  }

 private:
  std::vector<WorkloadProfile> profiles_;
  std::uint64_t seed_;
  SessionPlan plan_;
};

// The Fig. 5 sweep through run_sweep(): fig5-sweep.
class Sweep final : public Workload {
 public:
  explicit Sweep(std::uint64_t seed)
      : base_{paper_config(),
              TraceSpec::profile(WorkloadProfile{}, kSweepAccessesPerCell),
              RunOptions::with_seed(seed)},
        archs_(paper_architectures()),
        profiles_(benchmark_profiles()),
        seed_(seed) {
    base_.options.jobs = ParallelPolicy::with_jobs(sweep_jobs());
  }

  // Pool start-up plus the first cell's set-up, on its worker.
  double setup_s() const override {
    const std::uint64_t t0 = now_ns();
    ThreadPool pool(base_.options.jobs.resolved_jobs());
    const SessionPlan plan = batch_plan(cell(0));
    std::future<std::uint64_t> first = pool.submit([&plan] {
      Client c(plan, nullptr, 0);
      c.feed_first();
      return now_ns();
    });
    return static_cast<double>(first.get() - t0) * 1e-9;
  }

  Unit run_untraced() const override {
    Unit u;
    const std::uint64_t t0 = now_ns();
    const std::vector<SweepRow> rows = run_sweep(base_, archs_, profiles_);
    u.wall_s = seconds_since(t0);
    for (const SweepRow& row : rows) {
      u.results.insert(u.results.end(), row.results.begin(),
                       row.results.end());
    }
    return u;
  }

  // The same cells on the same pool size, each cell's run() in a span.
  Unit run_traced(Tracer& t) const override {
    Unit u;
    const std::uint64_t t0 = now_ns();
    {
      Scope root(&t, "sweep");
      const std::uint32_t parent = root.id();
      ThreadPool pool(base_.options.jobs.resolved_jobs());
      std::vector<std::future<SimResult>> cells;
      for (std::size_t i = 0; i < cells_(); ++i) {
        cells.push_back(pool.submit([this, &t, parent, i] {
          Scope s(&t, "sweep.cell", parent);
          return run(cell(i));
        }));
      }
      for (auto& f : cells) u.results.push_back(f.get());
    }
    u.wall_s = seconds_since(t0);
    return u;
  }

  std::uint64_t records() const override {
    return cells_() * kSweepAccessesPerCell;
  }

  double paper_error(const Unit& u, Checks& checks) const override {
    std::vector<SweepRow> rows(profiles_.size());
    for (std::size_t i = 0; i < u.results.size(); ++i) {
      rows[i / archs_.size()].results.push_back(u.results[i]);
    }
    return fig5_error(rows, 1, checks);
  }

  // One cell, chosen by the seed, rerun alone in this thread.
  void check(const Unit& untraced, const Unit&, Checks& checks) const override {
    const std::size_t i = seed_ % cells_();
    std::string why;
    const bool ok =
        same_result(run(cell(i)), untraced.results.at(i), true, &why);
    checks.expect(ok, "sweep cell " + std::to_string(i) +
                          " rerun alone through run(): " + why);
  }

  void layers(const Unit&, const Tracer& tracer, double, Checks&,
              std::map<std::string, double>& out) const override {
    const std::vector<double> cell_s = tracer.durations_s("sweep.cell");
    const std::vector<double> sweep_s = tracer.durations_s("sweep");
    double busy = 0.0;
    for (const double s : cell_s) busy += s;
    out["sweep.cell_s_p50"] = percentile(cell_s, 0.5);
    out["sweep.cell_s_max"] = percentile(cell_s, 1.0);
    out["sweep.worker_busy_share"] = ratio(
        busy, base_.options.jobs.resolved_jobs() * sweep_s.at(0));
  }

 private:
  std::size_t cells_() const { return archs_.size() * profiles_.size(); }

  // Cell i of the row-major (profile, arch) grid, as run_sweep runs it.
  RunRequest cell(std::size_t i) const {
    RunRequest req = base_;
    req.config.arch = archs_[i % archs_.size()];
    req.trace = TraceSpec::profile(profiles_[i / archs_.size()],
                                   kSweepAccessesPerCell);
    req.options.jobs = ParallelPolicy::serial();
    return req;
  }

  RunRequest base_;
  std::vector<ArchConfig> archs_;
  std::vector<WorkloadProfile> profiles_;
  std::uint64_t seed_;
};

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "paper-light") {
    const WorkloadProfile bzip2 = *find_profile("401.bzip2");
    return std::make_unique<Batch>(kPcmRefresh, bzip2, bzip2, 1,
                                   kPaperLightAccesses, seed);
  }
  if (name == "saturated-wcpcm") {
    // 464.h264ref's locality and write mix, with the burst and idle gaps
    // shrunk until the channel queue sits at its capacity.
    const WorkloadProfile h264ref = *find_profile("464.h264ref");
    WorkloadProfile p = h264ref;
    p.name = "464.h264ref-saturated";
    p.intra_gap_ns = 4;
    p.idle_gap_mean_ns = 20;
    return std::make_unique<Batch>(kWcpcm, h264ref, p, kSaturatedTraces,
                                   kSaturatedAccesses, seed);
  }
  if (name == "serve-polar") {
    SimConfig cfg = paper_config();
    cfg.geom.channels = 4;
    cfg.geom.ranks = 4;
    cfg = apply_overrides(cfg, KeyValueConfig::from_tokens(
                                   {"main.coding=polar",
                                    "main.code=polar-m7-inv", "refresh=rat"}));
    return std::make_unique<Serve>(cfg, seed);
  }
  if (name == "fig5-sweep") return std::make_unique<Sweep>(seed);
  throw std::invalid_argument("unknown workload \"" + name +
                              "\" (paper-light, saturated-wcpcm, serve-polar, "
                              "fig5-sweep)");
}

// ---------------------------------------------------------------------------
// Metrics.

// The counts the program publishes at the layer boundaries (SimResult,
// stats.counters, phases), pooled over every result of the traced run.
void published_layers(const Unit& u, std::map<std::string, double>& out) {
  double ctrl_ns = 0, codec_ns = 0, total_ns = 0, deferred = 0, refresh = 0;
  double max_depth = 0, bus_busy = 0, bus_span = 0, row_hits = 0, ops = 0;
  double max_bank = 0;
  std::map<std::string, double> c;
  for (const SimResult& r : u.results) {
    ctrl_ns += static_cast<double>(r.phases.controller_ns);
    codec_ns += static_cast<double>(r.phases.codec_ns);
    total_ns += static_cast<double>(r.phases.total_ns);
    deferred += static_cast<double>(r.deferred_injections);
    refresh += static_cast<double>(r.refresh_commands);
    for (const auto& [name, m] : r.metrics.all()) {
      if (!name.starts_with("ch")) continue;
      if (name.ends_with(".max_queue_depth")) {
        max_depth = std::max(max_depth, static_cast<double>(m.count));
      } else if (name.ends_with(".bus_busy_ns")) {
        bus_busy += static_cast<double>(m.count);
        bus_span += static_cast<double>(r.end_time);
      }
    }
    for (const SimResult::BankUtilization& b : r.banks) {
      row_hits += static_cast<double>(b.row_hits);
      ops += static_cast<double>(b.ops);
    }
    max_bank = std::max(max_bank, r.max_bank_utilization());
    for (const auto& [name, v] : r.stats.counters.all()) {
      c[name] += static_cast<double>(v);
    }
  }
  out["controller.host_s"] = ctrl_ns * 1e-9;
  out["sim.deferred_injections"] = deferred;
  out["ctrl.max_queue_depth"] = max_depth;
  out["ctrl.bus_busy_share"] = ratio(bus_busy, bus_span);
  out["ctrl.row_hit_rate"] = ratio(row_hits, ops);
  out["ctrl.max_bank_utilization"] = max_bank;
  out["ctrl.reads_forwarded"] = c["ctrl.reads_forwarded"];
  out["ctrl.refresh_pauses"] = c["ctrl.refresh_pauses"];
  out["refresh.commands"] = refresh;
  out["arch.fast_write_share"] =
      ratio(c["writes.fast"], c["writes.fast"] + c["writes.alpha"]);
  out["arch.alpha_writes"] = c["writes.alpha"];
  out["wcpcm.write_hit_rate"] = ratio(
      c["wcpcm.write_hits"], c["wcpcm.write_hits"] + c["wcpcm.write_misses"]);
  out["wcpcm.read_hit_rate"] = ratio(
      c["wcpcm.read_hits"], c["wcpcm.read_hits"] + c["wcpcm.read_misses"]);
  out["wcpcm.victims"] = c["wcpcm.victims"];
  out["rat.stale_pop_share"] = ratio(c["rat.stale_pop"], c["rat.insert"]);
  out["codec.host_s"] = codec_ns * 1e-9;
  out["codec.host_share"] = ratio(codec_ns, total_ns);
  out["codec.lut_hit_rate"] = ratio(
      c["codec.lut_hits"], c["codec.lut_hits"] + c["codec.lut_fallbacks"]);
}

// Per-layer self times and call statistics from the benchmark's spans.
void span_layers(const Unit& u, const Tracer& t,
                 std::map<std::string, double>& out) {
  const std::map<std::string, double> self = t.self_s_by_name();
  auto self_s = [&](const char* name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  };
  out["trace.next_block_s"] = self_s("trace.next_block");
  double records = 0.0;
  for (const std::uint64_t n : u.generated) records += static_cast<double>(n);
  out["trace.records"] = records;
  out["service.submit_s"] = self_s("service.submit");
  out["service.step_s"] = self_s("service.step");
  out["service.drain_s"] = self_s("service.drain");
  std::vector<double> step_us = t.durations_s("service.step");
  for (double& s : step_us) s *= 1e6;
  out["service.steps"] = static_cast<double>(step_us.size());
  out["service.step_us_p50"] = percentile(step_us, 0.5);
  out["service.step_us_p99"] = percentile(step_us, 0.99);
  double rejected = 0.0;
  for (const StreamStats& s : u.streams) rejected += static_cast<double>(s.rejected);
  out["service.rejected"] = rejected;
  out["service.starved_steps"] = static_cast<double>(u.starved_steps);
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch;
  }
  return out + "\"";
}

template <typename T, typename ToJson>
std::string json_array(const std::vector<T>& items, ToJson to_json) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    out += (i == 0 ? "" : ", ") + to_json(items[i]);
  }
  return out + "]";
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
  out.close();
  if (!out) throw std::runtime_error("cannot write " + path);
}

std::string metrics_json(const std::map<std::string, double>& values,
                         const MetricDef* defs, std::size_t n) {
  std::string out = "{";
  for (std::size_t i = 0; i < n; ++i) {
    out += (i == 0 ? "" : ", ") + json_string(defs[i].name) +
           ": {\"value\": " + json_number(values.at(defs[i].name)) +
           ", \"unit\": " + json_string(defs[i].unit) + "}";
  }
  return out + "}";
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string results = ".bench_build/results";
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; i += 2) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument(key + " needs a value");
    const std::string v = argv[i + 1];
    if (key == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (key == "--seed") {
      a.seed = std::stoull(v);
    } else if (key == "--seconds") {
      a.seconds = std::stod(v);
      if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
    } else if (key == "--trace") {
      if (v != "0" && v != "1") throw std::invalid_argument("--trace is 0 or 1");
      a.trace = v == "1";
    } else if (key == "--results") {
      a.results = v;
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  return a;
}

int bench_main(const Args& args) {
  const std::unique_ptr<Workload> w = make_workload(args.workload, args.seed);
  const std::string env = std::string("{\"nproc\": ") +
                          std::to_string(ThreadPool::hardware_workers()) +
                          ", \"compiler\": " + json_string(PERFBENCH_COMPILER) +
                          ", \"build_type\": " +
                          json_string(PERFBENCH_BUILD_TYPE) +
                          ", \"traced\": " + (args.trace ? "true" : "false") +
                          "}";
  std::printf("perfbench: workload %s, seed %llu, %g s, trace %d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::printf("environment: %s\n", env.c_str());
  std::fflush(stdout);

  Checks checks;

  std::vector<double> setups;
  for (int i = 0; i < kSetupReps; ++i) setups.push_back(w->setup_s());

  std::vector<double> rates, walls, peaks;
  Unit first;
  const std::uint64_t t0 = now_ns();
  while (static_cast<int>(walls.size()) < kMinTimedReps ||
         seconds_since(t0) < args.seconds) {
    take_peak_rss_mb();
    Unit u = w->run_untraced();
    peaks.push_back(take_peak_rss_mb());
    rates.push_back(ratio(static_cast<double>(u.accesses()), u.wall_s));
    walls.push_back(u.wall_s);
    if (walls.size() == 1) {
      first = std::move(u);
    } else {
      expect_same(checks, first, u, true,
                  "untraced repetition " + std::to_string(walls.size()));
    }
  }

  Tracer tracer(1);
  const Unit traced = w->run_traced(tracer);
  expect_same(checks, first, traced, w->streams_published(),
              "traced run matches untraced");
  for (const Unit* u : std::initializer_list<const Unit*>{&first, &traced}) {
    checks.expect(u->accesses() == w->records(),
                  "injected reads plus writes equal the records generated");
  }
  std::uint64_t generated = 0;
  for (const std::uint64_t n : traced.generated) generated += n;
  checks.expect(traced.generated.empty() || generated == w->records(),
                "the traced client generated every record");
  w->check(first, traced, checks);

  std::map<std::string, double> e2e;
  e2e["accesses_per_s"] = median(rates);
  e2e["setup_s"] = median(setups);
  e2e["peak_rss_mb"] = median(peaks);
  PooledLatency reads(false), writes(true);
  for (const SimResult& r : first.results) {
    reads.add(r);
    writes.add(r);
  }
  e2e["sim_read_ns"] = reads.mean();
  e2e["sim_write_ns"] = writes.mean();
  e2e["paper_error"] = w->paper_error(first, checks);

  std::map<std::string, double> layer;
  for (const MetricDef& d : kPerLayer) layer[d.name] = 0.0;
  if (args.trace) {
    span_layers(traced, tracer, layer);
    published_layers(traced, layer);
    w->layers(traced, tracer, median(walls), checks, layer);
    layer["bench.trace_overhead"] = ratio(traced.wall_s, median(walls)) - 1.0;
  }
  for (auto* values : {&e2e, &layer}) {
    for (auto& [name, v] : *values) {
      checks.expect(std::isfinite(v), "metric " + name + " is finite");
      if (!std::isfinite(v)) v = 0.0;
    }
  }
  for (const auto& [name, v] : e2e) {
    checks.expect(v > 0.0, "metric " + name + " is positive");
  }
  layer["check_failures"] =
      ratio(static_cast<double>(checks.failed()),
            static_cast<double>(checks.attempted()));

  // Human-readable report, then the results file, then the result line.
  for (const MetricDef& d : kEndToEnd) {
    std::printf("%-28s %20.6f %s\n", d.name, e2e.at(d.name), d.unit);
  }
  if (args.trace) {
    for (const MetricDef& d : kPerLayer) {
      std::printf("%-28s %20.6f %s\n", d.name, layer.at(d.name), d.unit);
    }
  } else {
    std::printf("%-28s %20.6f %s\n", "check_failures",
                layer.at("check_failures"), "share");
  }
  std::printf("timed repetitions: %zu, checks: %llu attempted, %llu failed\n",
              walls.size(), static_cast<unsigned long long>(checks.attempted()),
              static_cast<unsigned long long>(checks.failed()));

  std::filesystem::create_directories(args.results);
  const std::string stem = args.results + "/" + args.workload + "-seed" +
                           std::to_string(args.seed) + "-trace" +
                           (args.trace ? "1" : "0");
  if (args.trace && !tracer.write_jsonl(stem + ".spans.jsonl")) {
    throw std::runtime_error("cannot write " + stem + ".spans.jsonl");
  }
  const std::string e2e_json = metrics_json(e2e, kEndToEnd, std::size(kEndToEnd));
  const std::string layer_json =
      metrics_json(layer, kPerLayer, std::size(kPerLayer));
  const std::string counts =
      "\"attempted\": " + std::to_string(checks.attempted()) +
      ", \"failed\": " + std::to_string(checks.failed());
  write_file(stem + ".json",
             "{\"workload\": " + json_string(args.workload) +
                 ", \"seed\": " + std::to_string(args.seed) +
                 ", \"seconds\": " + json_number(args.seconds) +
                 ", \"environment\": " + env +
                 ",\n \"end_to_end\": " + e2e_json +
                 ",\n \"per_layer\": " + layer_json +
                 ",\n \"rep_wall_s\": " + json_array(walls, json_number) +
                 ",\n \"checks\": {" + counts + ", \"failures\": " +
                 json_array(checks.failures(), json_string) + "}}\n");

  std::printf("{\"correct\": %s, %s, \"metrics\": %s}\n",
              checks.failed() == 0 ? "true" : "false", counts.c_str(),
              (args.trace ? layer_json : e2e_json).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return bench_main(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
