#include "controller/scheduler.h"

namespace wompcm {

const char* to_string(SchedulingPolicy p) {
  return p == SchedulingPolicy::kFcfs ? "fcfs" : "read-priority";
}

bool SchedulerConfig::valid(std::string* why) const {
  auto fail = [&](const char* msg) {
    if (why != nullptr) *why = msg;
    return false;
  };
  if (write_q_high == 0) return fail("write_q_high must be non-zero");
  if (write_q_low >= write_q_high) {
    return fail("write_q_low must be below write_q_high");
  }
  if (scan_limit == 0) return fail("scan_limit must be non-zero");
  return true;
}

bool WriteDrainPolicy::update(std::size_t write_q_size,
                              std::size_t read_q_size) {
  if (write_q_size >= cfg_.write_q_high) draining_ = true;
  if (write_q_size <= cfg_.write_q_low) draining_ = false;
  // With no reads pending, writes are served opportunistically regardless
  // of the drain state.
  return draining_ || read_q_size == 0;
}

}  // namespace wompcm
