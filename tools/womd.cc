// womd: the service-mode simulation driver. Opens one SimService session
// per input stream — trace files and/or synthetic benchmark profiles —
// feeds them chunk by chunk through the streaming submit/step API under
// back-pressure, and reports the per-stream books next to the aggregate
// result. The multi-stream merge happens inside the service, so the
// output is bit-identical to a batch run over the pre-merged trace.
//
//   womd traces=a.trc,b.trc
//   womd profiles=401.bzip2,429.mcf,471.omnetpp,483.xalancbmk
//        accesses=100000 config=configs/dualchannel.cfg
//
// Arguments:
//   traces=A,B,...     trace files (text or binary), one session each
//   profiles=P,Q,...   synthetic profile names (trace/profiles.h), one
//                      session each; stream s draws from
//                      seed ^ (golden-ratio * (s + 1))
//   accesses=N         records per profile stream (default 100000)
//   seed=S             base seed for profile streams (default 42)
//   chunk=B            records per submit (default 256)
//   config=FILE        key=value config file (configs/*.cfg)
//   any config key     overrides, same dialect as every harness
//                      (channels=2 arch=wcpcm fault.enabled=true ...)
//   --list-codes       print the registered code families (k/n/t/rate/
//                      overhead/wear/LUT) and exit
#include <cstdint>
#include <cstdio>
#include <exception>
#include <memory>
#include <string>
#include <vector>

#include "common/config.h"
#include "sim/config_io.h"
#include "sim/experiment.h"
#include "sim/service.h"
#include "trace/binary_source.h"
#include "trace/profiles.h"
#include "trace/synthetic.h"
#include "wom/registry.h"

namespace {

using namespace wompcm;

std::vector<std::string> split_list(const std::string& csv) {
  std::vector<std::string> out;
  std::size_t at = 0;
  while (at <= csv.size()) {
    const std::size_t comma = csv.find(',', at);
    const std::size_t end = comma == std::string::npos ? csv.size() : comma;
    if (end > at) out.push_back(csv.substr(at, end - at));
    if (comma == std::string::npos) break;
    at = comma + 1;
  }
  return out;
}

// Stream name shown in the report: the trace file's basename, or the
// profile name.
std::string basename_of(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

int usage() {
  std::fprintf(stderr,
               "usage: womd [traces=a.trc,b.trc] [profiles=P,Q,...] "
               "[accesses=N] [seed=S]\n"
               "            [chunk=B] [config=FILE] "
               "[config-key=value ...]\n"
               "       womd --list-codes\n"
               "  at least one trace or profile stream is required\n");
  return 2;
}

// Discovery surface for the coding registry: every name main.code= /
// cache.code= (or the legacy code=) accepts, with its parameter sheet.
int list_codes() {
  std::printf("%-22s %4s %5s %4s %10s %9s %6s %5s %5s\n", "code", "k", "n",
              "t", "rate tk/n", "overhead", "wear", "LUT", "inv");
  for (const std::string& name : known_block_codec_names()) {
    const CodeInfo info = code_info(name);
    if (!info.valid) continue;
    std::printf("%-22s %4u %5u %4u %10.3f %9.2f %6.2f %5s %5s\n",
                info.name.c_str(), info.data_bits, info.wits, info.max_writes,
                static_cast<double>(info.max_writes) * info.data_bits /
                    info.wits,
                info.overhead, info.wear_bound, info.lut ? "yes" : "no",
                info.inverted ? "yes" : "no");
  }
  std::printf(
      "\nclassic kinds (main.coding=wom-wide|wom-hidden) take symbol codes\n"
      "via code=; the sectioned families take main.code=polar-* /\n"
      "main.code=tsc-* under main.coding=polar / ts-constrained.\n"
      "Architectures require the inverted (-inv) variants.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--list-codes") return list_codes();
  }
  const KeyValueConfig args = KeyValueConfig::from_args(argc, argv);
  const std::vector<std::string> traces =
      split_list(args.get_string_or("traces", ""));
  const std::vector<std::string> profiles =
      split_list(args.get_string_or("profiles", ""));
  if (traces.empty() && profiles.empty()) return usage();

  try {
    const auto accesses = static_cast<std::uint64_t>(
        args.get_int_in("accesses", 100000, 0, INT64_MAX));
    const auto seed = static_cast<std::uint64_t>(
        args.get_int_in("seed", 42, 0, INT64_MAX));
    // chunk=0 would never reach end of stream.
    const auto chunk = static_cast<std::size_t>(
        args.get_int_in("chunk", 256, 1, INT64_MAX));
    SimConfig cfg = paper_config();
    if (args.has("config")) {
      cfg = load_config_file(cfg, args.get_string_or("config", ""));
    }
    cfg = apply_overrides(cfg, args,
                          {"traces", "profiles", "accesses", "seed", "chunk",
                           "config"});

    // One feed per stream: trace files first, then profile streams, in
    // the order given — that order is the merge tie-break.
    struct Feed {
      std::string label;
      std::unique_ptr<TraceSource> src;
      SessionId id = 0;
      std::vector<TraceRecord> buf;
      std::size_t off = 0;  // accepted prefix of buf
      bool eof = false;
      bool closed = false;
    };
    std::vector<Feed> feeds;
    for (const std::string& path : traces) {
      Feed fd;
      fd.label = basename_of(path);
      fd.src = open_trace(path);
      feeds.push_back(std::move(fd));
    }
    for (std::size_t p = 0; p < profiles.size(); ++p) {
      const auto profile = find_profile(profiles[p]);
      if (!profile.has_value()) {
        std::fprintf(stderr, "womd: unknown profile: %s\n",
                     profiles[p].c_str());
        return 1;
      }
      const unsigned s = static_cast<unsigned>(traces.size() + p);
      Feed fd;
      fd.label = profiles[p];
      fd.src = std::make_unique<SyntheticTraceSource>(
          *profile, cfg.geom, seed ^ (0x9e3779b97f4a7c15ULL * (s + 1)),
          accesses);
      feeds.push_back(std::move(fd));
    }

    std::printf("womd: %zu stream(s) on %u channel(s), chunk=%zu\n",
                feeds.size(), cfg.geom.channels, chunk);

    SimService svc(cfg);
    for (Feed& fd : feeds) {
      StreamSpec spec;
      spec.name = fd.label;
      spec.capacity = 4 * chunk;
      fd.id = svc.open_session(spec);
    }

    // The streaming pump: refill each session's chunk when drained,
    // resubmit back-pressured tails, close at end of trace, step.
    std::size_t live = feeds.size();
    while (live > 0) {
      for (Feed& fd : feeds) {
        if (fd.closed) continue;
        if (fd.off == fd.buf.size() && !fd.eof) {
          fd.buf.resize(chunk);
          const std::size_t n = fd.src->next_block(fd.buf.data(), chunk);
          fd.buf.resize(n);
          fd.off = 0;
          fd.eof = n < chunk;
        }
        if (fd.off < fd.buf.size()) {
          fd.off += svc.submit(fd.id, fd.buf.data() + fd.off,
                               fd.buf.size() - fd.off)
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

    // Per-stream books before drain retires the sessions.
    std::printf("\n%-18s %10s %10s %10s %8s %12s %12s %9s %9s\n", "stream",
                "submitted", "reads", "writes", "deferred", "avg_read_ns",
                "avg_write_ns", "fwd", "tier");
    for (const Feed& fd : feeds) {
      const StreamStats s = svc.poll(fd.id);
      std::printf("%-18s %10llu %10llu %10llu %8llu %12.1f %12.1f %9llu "
                  "%9llu\n",
                  s.name.c_str(),
                  static_cast<unsigned long long>(s.submitted),
                  static_cast<unsigned long long>(s.injected_reads),
                  static_cast<unsigned long long>(s.injected_writes),
                  static_cast<unsigned long long>(s.deferred), s.avg_read_ns,
                  s.avg_write_ns,
                  static_cast<unsigned long long>(s.reads_forwarded),
                  static_cast<unsigned long long>(s.tier_absorbed));
    }

    const SimResult r = svc.drain();
    std::printf("\naggregate (%s):\n", r.arch_name.c_str());
    std::printf("  simulated time:   %llu ns\n",
                static_cast<unsigned long long>(r.end_time));
    std::printf("  injected:         %llu reads, %llu writes "
                "(%llu deferred)\n",
                static_cast<unsigned long long>(r.injected_reads),
                static_cast<unsigned long long>(r.injected_writes),
                static_cast<unsigned long long>(r.deferred_injections));
    std::printf("  avg read latency: %.1f ns\n",
                r.stats.demand_read_latency.mean());
    std::printf("  avg write latency: %.1f ns\n",
                r.stats.demand_write_latency.mean());
    std::printf("  energy:           %.1f uJ write, %.1f uJ read\n",
                r.energy_write_pj * 1e-6, r.energy_read_pj * 1e-6);
    if (r.fault_injected > 0) {
      std::printf("  faults:           %llu injected, %llu retries, "
                  "%llu dead rows\n",
                  static_cast<unsigned long long>(r.fault_injected),
                  static_cast<unsigned long long>(r.fault_retries),
                  static_cast<unsigned long long>(r.fault_dead_rows));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "womd: %s\n", e.what());
    return 1;
  }
  return 0;
}
