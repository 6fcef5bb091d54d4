#include "trace/mix.h"

#include <stdexcept>

namespace wompcm {

MixTraceSource::MixTraceSource(
    std::vector<std::unique_ptr<TraceSource>> sources)
    : sources_(std::move(sources)),
      clocks_(sources_.size(), 0),
      contributed_(sources_.size(), 0) {
  if (sources_.empty()) {
    throw std::invalid_argument("MixTraceSource: no component sources");
  }
  for (const auto& s : sources_) {
    if (s == nullptr) {
      throw std::invalid_argument("MixTraceSource: null component source");
    }
  }
}

void MixTraceSource::refill(std::size_t src) {
  const auto rec = sources_[src]->next();
  if (!rec) return;
  clocks_[src] += rec->gap;
  heads_.push(Head{clocks_[src], src, *rec});
}

std::size_t MixTraceSource::next_block(TraceRecord* out, std::size_t max) {
  if (!primed_) {
    primed_ = true;
    for (std::size_t i = 0; i < sources_.size(); ++i) refill(i);
  }
  std::size_t n = 0;
  for (; n < max && !heads_.empty(); ++n) {
    const Head h = heads_.top();
    heads_.pop();
    refill(h.src);
    out[n] = h.rec;
    out[n].gap = h.time - last_emitted_;
    last_emitted_ = h.time;
    ++contributed_[h.src];
  }
  return n;
}

}  // namespace wompcm
