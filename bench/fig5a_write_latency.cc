// Fig. 5(a): normalized average memory WRITE latency of the four PCM
// architectures across SPEC CPU2006 / MiBench / SPLASH-2.
//
// Paper averages: WOM-code PCM 0.799 (-20.1%), PCM-refresh 0.451 (-54.9%),
// WCPCM 0.528 (-47.2%); best single benchmark 464.h264ref.
//
// Usage: fig5a_write_latency [accesses=N] [seed=S] [csv=1]

#include <cstdio>
#include <exception>

#include "fig5_common.h"

int main(int argc, char** argv) {
  try {
    return wompcm::bench::run_fig5(
        argc, argv, "Fig. 5(a): normalized write latency in PCM main memory",
        "average write latency", 0.799, 0.451, 0.528,
        [](const wompcm::SimResult& r) { return r.avg_write_ns(); });
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fig5a_write_latency: %s\n", e.what());
    return 1;
  }
}
