#include "sim/backend.h"

#include "sim/memory_system.h"
#include "sim/sharded.h"
#include "sim/simulator.h"

namespace wompcm {

namespace {

// The serial substrate: one MemorySystem (per-channel controllers sharing
// one Architecture and one SimStats sink) stepped inline on the calling
// thread — byte-for-byte the components the original Simulator::run wired.
class SerialBackend final : public SimBackend {
 public:
  explicit SerialBackend(const SimConfig& cfg)
      : arch_(make_architecture(cfg.arch, cfg.geom, cfg.timing, cfg.fault)),
        arch_name_(arch_->name()),
        mem_(cfg, *arch_, stats_) {}

  const std::string& arch_name() const override { return arch_name_; }
  unsigned num_channels() const override { return mem_.num_channels(); }

  bool can_accept(const DecodedAddr& dec) const override {
    return mem_.can_accept(dec);
  }
  void enqueue(const Transaction& tx) override { mem_.enqueue(tx); }
  Tick next_event_after(Tick now) override {
    return mem_.next_event_after(now);
  }
  void tick(Tick now) override { mem_.tick(now); }
  bool drained() const override { return mem_.drained(); }
  Tick last_completion() const override { return mem_.last_completion(); }

  void fold_stream(std::uint32_t stream,
                   SimStats::StreamSlice& into) const override {
    if (stream != 0 && stream <= stats_.streams.size()) {
      into.merge(stats_.streams[stream - 1]);
    }
  }

  void finish(MetricsRegistry& reg, SimResult& result) override {
    mem_.publish_metrics(reg);  // includes "sim.end_time"
    arch_->publish_metrics(reg, mem_.last_completion());
    result.stats.merge_from(stats_);
    result.stats.counters.merge(arch_->counters());
    result.banks.reserve(arch_->num_resources());
    for (const MemorySystem::BankSnapshot& s : mem_.banks()) {
      result.banks.push_back(SimResult::BankUtilization{
          s.bank->busy_time(), s.bank->ops(), s.bank->row_hits(),
          s.bank->pauses(), s.is_cache});
    }
  }

 private:
  std::unique_ptr<Architecture> arch_;
  std::string arch_name_;
  SimStats stats_;
  MemorySystem mem_;
};

}  // namespace

std::unique_ptr<SimBackend> make_backend(const SimConfig& cfg,
                                         unsigned jobs) {
  if (jobs > 1 && cfg.geom.channels > 1) {
    return std::make_unique<ShardedBackend>(cfg, jobs);
  }
  return std::make_unique<SerialBackend>(cfg);
}

}  // namespace wompcm
