// In-memory span recorder for the benchmark's traced run.
//
// The benchmark wraps each call it makes into a layer's public function
// (TraceSource::next_block, SimService::submit/step/drain/poll, one sweep
// cell's run()) in a span: name, start, end, parent span and run id. Spans
// stay in memory while the run is timed and are written out once, after
// it. A layer's self time is its span's duration minus the part of that
// interval its child spans cover (children may overlap, as parallel sweep
// cells do, so the covered part is the union of their intervals).
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct Span {
  const char* name = "";  // a string literal: outlives the tracer
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint32_t parent = 0;  // id of the enclosing span; 0 = a root
  std::uint32_t run = 0;
};

// Thread-safe: sweep cells open spans from pool workers. Span ids are
// 1-based indices into the recorded spans. The readers below run only
// after every span has ended (no concurrent begin/end).
class Tracer {
 public:
  explicit Tracer(std::uint32_t run) : run_(run) {}

  std::uint32_t begin(const char* name, std::uint32_t parent) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{name, now_ns(), 0, parent, run_});
    return static_cast<std::uint32_t>(spans_.size());
  }

  void end(std::uint32_t id) {
    const std::uint64_t t = now_ns();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[id - 1].end_ns = t;
  }

  // Self time of every span, in recording order.
  std::vector<std::uint64_t> self_ns() const {
    std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> kids(
        spans_.size());
    for (const Span& s : spans_) {
      if (s.parent != 0) kids[s.parent - 1].emplace_back(s.start_ns, s.end_ns);
    }
    std::vector<std::uint64_t> self(spans_.size(), 0);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      auto& iv = kids[i];
      std::sort(iv.begin(), iv.end());
      std::uint64_t covered = 0;
      std::uint64_t reach = s.start_ns;  // end of the union so far
      for (auto [a, b] : iv) {
        a = std::max(a, reach);
        b = std::min(b, s.end_ns);
        if (b > a) {
          covered += b - a;
          reach = b;
        }
      }
      self[i] = s.end_ns - s.start_ns - covered;
    }
    return self;
  }

  // Sum of self time by span name, in seconds.
  std::map<std::string, double> self_s_by_name() const {
    const std::vector<std::uint64_t> self = self_ns();
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      out[spans_[i].name] += static_cast<double>(self[i]) * 1e-9;
    }
    return out;
  }

  // Durations of every span with this name, in seconds.
  std::vector<double> durations_s(const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (name == s.name) {
        out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-9);
      }
    }
    return out;
  }

  // One JSON object per line; times relative to the first span's start.
  bool write_jsonl(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const std::vector<std::uint64_t> self = self_ns();
    const std::uint64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"run\": %u, \"id\": %zu, \"parent\": %u, \"name\": "
                   "\"%s\", \"start_ns\": %llu, \"end_ns\": %llu, "
                   "\"self_ns\": %llu}\n",
                   s.run, i + 1, s.parent, s.name,
                   static_cast<unsigned long long>(s.start_ns - t0),
                   static_cast<unsigned long long>(s.end_ns - t0),
                   static_cast<unsigned long long>(self[i]));
    }
    return std::fclose(f) == 0;
  }

 private:
  std::uint32_t run_;
  std::mutex mu_;
  std::vector<Span> spans_;
};

// RAII span; a null tracer makes it a no-op (the untraced runs).
class Scope {
 public:
  Scope(Tracer* t, const char* name, std::uint32_t parent = 0)
      : t_(t), id_(t != nullptr ? t->begin(name, parent) : 0) {}
  ~Scope() {
    if (t_ != nullptr) t_->end(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  std::uint32_t id() const { return id_; }

 private:
  Tracer* t_;
  std::uint32_t id_;
};

}  // namespace perfbench
