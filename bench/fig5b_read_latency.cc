// Fig. 5(b): normalized average memory READ latency of the four PCM
// architectures across SPEC CPU2006 / MiBench / SPLASH-2.
//
// Paper averages: WOM-code PCM 0.898 (-10.2%), PCM-refresh 0.521 (-47.9%),
// WCPCM 0.560 (-44.0%).
//
// Usage: fig5b_read_latency [accesses=N] [seed=S] [csv=1]

#include <cstdio>
#include <exception>

#include "fig5_common.h"

int main(int argc, char** argv) {
  try {
    return wompcm::bench::run_fig5(
        argc, argv, "Fig. 5(b): normalized read latency in PCM main memory",
        "average read latency", 0.898, 0.521, 0.560,
        [](const wompcm::SimResult& r) { return r.avg_read_ns(); });
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fig5b_read_latency: %s\n", e.what());
    return 1;
  }
}
