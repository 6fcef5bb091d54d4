// Trace utility: generates a synthetic benchmark trace into a file (text or
// binary), converts a trace between the two formats, inspects an existing
// trace, or replays a trace file through a chosen architecture.
// Demonstrates the drop-in path for real Pin traces.
//
// Usage:
//   trace_tool gen     out=FILE [benchmark=NAME] [accesses=N] [format=text|bin]
//   trace_tool convert in=FILE out=FILE [format=text|bin]
//   trace_tool info    in=FILE
//   trace_tool stats   in=FILE    (locality metrics the WOM path cares about)
//   trace_tool run     in=FILE [arch=pcm|wom|refresh|wcpcm]
//
// Every command but run reads and writes addresses under the paper
// geometry.

#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>

#include "womcode.h"

using namespace wompcm;

namespace {

TraceWriter::Format format_arg(const KeyValueConfig& args) {
  const std::string fmt = args.get_string_or("format", "text");
  if (fmt != "text" && fmt != "bin") {
    throw std::invalid_argument("bad value for format: " + fmt +
                                " (must be text or bin)");
  }
  return fmt == "bin" ? TraceWriter::Format::kBinary
                      : TraceWriter::Format::kText;
}

int cmd_gen(const KeyValueConfig& args) {
  const std::string out = args.get_string_or("out", "");
  if (out.empty()) {
    std::printf("gen: missing out=FILE\n");
    return 1;
  }
  const std::string bench = args.get_string_or("benchmark", "401.bzip2");
  const auto accesses = static_cast<std::uint64_t>(
      args.get_int_in("accesses", 50000, 1, INT64_MAX));
  const auto seed =
      static_cast<std::uint64_t>(args.get_int_in("seed", 42, 0, INT64_MAX));
  const auto profile = find_profile(bench);
  if (!profile) {
    std::printf("unknown benchmark %s\n", bench.c_str());
    return 1;
  }
  const MemoryGeometry geom = paper_config().geom;
  SyntheticTraceSource src(*profile, geom, seed, accesses);
  TraceWriter writer(out, format_arg(args), geom);
  std::uint64_t n = 0;
  while (const auto rec = src.next()) {
    writer.write(*rec);
    ++n;
  }
  std::printf("wrote %llu records to %s\n",
              static_cast<unsigned long long>(n), out.c_str());
  return 0;
}

// Copies a trace file record by record, as the file holds them: addresses
// are never decoded, so one beyond the geometry's capacity survives.
int cmd_convert(const KeyValueConfig& args) {
  const std::string in = args.get_string_or("in", "");
  const std::string out = args.get_string_or("out", "");
  if (in.empty() || out.empty()) {
    std::printf("convert: missing in=FILE or out=FILE\n");
    return 1;
  }
  if (std::filesystem::exists(out) && std::filesystem::equivalent(in, out)) {
    throw std::invalid_argument("convert: in and out are the same file");
  }
  const TraceWriter::Format format = format_arg(args);
  const MemoryGeometry geom = paper_config().geom;
  std::uint64_t n = 0;
  auto copy = [&](auto& src) {
    TraceWriter writer(out, format, geom);
    FileRecord rec;
    while (src.next_raw(&rec)) {
      writer.write(rec);
      ++n;
    }
  };
  if (is_binary_trace(in)) {
    MmapTraceSource src(in, geom);
    copy(src);
  } else {
    FileTraceSource src(in, geom);
    copy(src);
  }
  std::printf("wrote %llu records to %s\n",
              static_cast<unsigned long long>(n), out.c_str());
  return 0;
}

int cmd_info(const KeyValueConfig& args) {
  const std::string in = args.get_string_or("in", "");
  if (in.empty()) {
    std::printf("info: missing in=FILE\n");
    return 1;
  }
  const bool binary = is_binary_trace(in);
  const auto src = open_trace(in, paper_config().geom);
  std::uint64_t reads = 0, writes = 0;
  Tick span = 0;
  while (const auto rec = src->next()) {
    span += rec->gap;
    (rec->type == AccessType::kWrite ? writes : reads) += 1;
  }
  std::printf("%s: %s format, %llu reads, %llu writes, %.3f ms span\n",
              in.c_str(), binary ? "binary" : "text",
              static_cast<unsigned long long>(reads),
              static_cast<unsigned long long>(writes),
              static_cast<double>(span) / 1e6);
  return 0;
}

int cmd_stats(const KeyValueConfig& args) {
  const std::string in = args.get_string_or("in", "");
  if (in.empty()) {
    std::printf("stats: missing in=FILE\n");
    return 1;
  }
  const MemoryGeometry geom = paper_config().geom;
  const AddressMapper mapper(geom);
  const auto src = open_trace(in, geom);

  std::uint64_t reads = 0, writes = 0;
  Tick span = 0;
  std::map<std::uint64_t, std::uint64_t> write_counts;  // by line id
  std::map<std::uint64_t, std::uint64_t> row_writes;
  Log2Histogram gap_hist;
  while (const auto rec = src->next()) {
    span += rec->gap;
    gap_hist.add(rec->gap);
    if (rec->type == AccessType::kWrite) {
      ++writes;
      const DecodedAddr& d = rec->dec;
      ++write_counts[mapper.line_id(d)];
      ++row_writes[(static_cast<std::uint64_t>(mapper.flat_bank(d))
                    << 32) |
                   d.row];
    } else {
      ++reads;
    }
  }
  std::uint64_t rewrites = 0;
  std::uint64_t hottest_line = 0;
  for (const auto& [line, n] : write_counts) {
    rewrites += n - 1;
    if (n > hottest_line) hottest_line = n;
  }
  std::uint64_t hottest_row = 0;
  for (const auto& [row, n] : row_writes) {
    if (n > hottest_row) hottest_row = n;
  }
  const double total = static_cast<double>(reads + writes);
  std::printf("%s\n", in.c_str());
  std::printf("  accesses            %10.0f (%.1f%% writes)\n", total,
              total > 0 ? 100.0 * static_cast<double>(writes) / total : 0.0);
  std::printf("  span                %10.3f ms\n",
              static_cast<double>(span) / 1e6);
  std::printf("  distinct lines written %7zu\n", write_counts.size());
  std::printf("  distinct rows written  %7zu\n", row_writes.size());
  std::printf("  line rewrite fraction  %7.3f  (drives the WOM fast path)\n",
              writes > 0 ? static_cast<double>(rewrites) /
                               static_cast<double>(writes)
                         : 0.0);
  std::printf("  hottest line writes    %7llu\n",
              static_cast<unsigned long long>(hottest_line));
  std::printf("  hottest row writes     %7llu\n",
              static_cast<unsigned long long>(hottest_row));
  std::printf("  p50/p99 gap            %llu / %llu ns\n",
              static_cast<unsigned long long>(gap_hist.percentile(0.5)),
              static_cast<unsigned long long>(gap_hist.percentile(0.99)));
  return 0;
}

int cmd_run(const KeyValueConfig& args) {
  const std::string in = args.get_string_or("in", "");
  if (in.empty()) {
    std::printf("run: missing in=FILE\n");
    return 1;
  }
  SimConfig cfg = paper_config();
  try {
    cfg.arch.composition = arch_preset(args.get_string_or("arch", "refresh"));
  } catch (const std::invalid_argument& e) {
    std::printf("run: %s\n", e.what());
    return 1;
  }
  const SimResult r = run({cfg, TraceSpec::file(in)});
  std::printf("%s: avg write %.1f ns, avg read %.1f ns, %llu refresh cmds\n",
              r.arch_name.c_str(), r.avg_write_ns(), r.avg_read_ns(),
              static_cast<unsigned long long>(r.refresh_commands));
  return 0;
}

int tool_main(const KeyValueConfig& args) {
  if (args.positional().empty()) {
    std::printf(
        "usage: trace_tool gen|convert|info|stats|run key=value...\n"
        "  gen     out=FILE [benchmark=NAME] [accesses=N] [format=text|bin]\n"
        "  convert in=FILE out=FILE [format=text|bin]\n"
        "  info    in=FILE\n"
        "  stats   in=FILE\n"
        "  run     in=FILE [arch=pcm|wom|refresh|wcpcm|fnw|symmetric]\n");
    return 1;
  }
  const std::string& cmd = args.positional().front();
  if (cmd == "gen") return cmd_gen(args);
  if (cmd == "convert") return cmd_convert(args);
  if (cmd == "info") return cmd_info(args);
  if (cmd == "stats") return cmd_stats(args);
  if (cmd == "run") return cmd_run(args);
  std::printf("unknown command %s\n", cmd.c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return tool_main(KeyValueConfig::from_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "trace_tool: %s\n", e.what());
    return 1;
  }
}
