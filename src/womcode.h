// Umbrella header: the stable public surface of the WOM-code PCM simulator.
//
// Tools and studies include only this header:
//
//   #include "womcode.h"
//
// It exports, by layer:
//   - run entry:   RunRequest / TraceSpec / RunOptions / run / run_sweep
//                  (sim/run.h) and the paper platform (sim/experiment.h)
//   - service:     SimService session-oriented streaming API
//                  (sim/service.h): open_session / submit / step / poll /
//                  close_session / drain over a long-lived memory system
//   - results:     SimConfig / SimResult (sim/simulator.h)
//   - config I/O:  apply_overrides / load_config_file / describe
//                  (sim/config_io.h) and the key=value CLI parsing
//                  (common/config.h)
//   - traces:      benchmark profiles, recorded trace files, multi-core
//                  mixes (trace/profiles.h, binary_source.h,
//                  file_source.h, mix.h)
//   - WOM codes:   the code registry and page codec (wom/registry.h,
//                  page_codec.h) and exhaustive code search
//                  (wom/code_search.h)
//   - fault model: FaultConfig (pcm/fault_model.h, re-exported through
//                  sim/simulator.h) for programmatic fault setup
//   - reporting:   text tables and histograms (stats/table.h, histogram.h)
//
// Everything else under src/ (controller internals, bank/rank timing
// machinery, per-architecture classes) is internal: it may change without
// notice between versions. See DESIGN.md "Public API".
#pragma once

#include "common/config.h"
#include "sim/config_io.h"
#include "sim/experiment.h"
#include "sim/run.h"
#include "sim/service.h"
#include "sim/simulator.h"
#include "stats/histogram.h"
#include "stats/table.h"
#include "trace/binary_source.h"
#include "trace/file_source.h"
#include "trace/mix.h"
#include "trace/profiles.h"
#include "wom/code_search.h"
#include "wom/page_codec.h"
#include "wom/registry.h"
