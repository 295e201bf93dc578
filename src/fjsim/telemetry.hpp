// Shared telemetry handles for the fjsim replay engines.
//
// Every metric here is recorded at run or block granularity -- never per
// task -- so the replay hot loops are byte-for-byte the code they were
// before instrumentation and the bit-identity contract is untouched.  Catalog in docs/observability.md.
#pragma once

#include "obs/metrics.hpp"

namespace forktail::fjsim {

struct ReplayMetrics {
  /// Simulation runs completed (any simulator).
  obs::Counter& runs = obs::Registry::global().counter("fjsim.runs");
  /// Tasks replayed inside the measured window / discarded as warm-up.
  obs::Counter& tasks_measured =
      obs::Registry::global().counter("fjsim.tasks.measured");
  obs::Counter& tasks_warmup =
      obs::Registry::global().counter("fjsim.tasks.warmup");
  /// Arrival tiles processed by the tiled replay (one per request at
  /// batch = 1).
  obs::Counter& tiles = obs::Registry::global().counter("fjsim.tiles");
  /// Wall-clock of one full simulator run / of one worker's node block.
  obs::Histogram& run_seconds =
      obs::Registry::global().histogram("fjsim.run_seconds");
  obs::Histogram& block_seconds =
      obs::Registry::global().histogram("fjsim.block_seconds");

  static ReplayMetrics& get() {
    static ReplayMetrics metrics;
    return metrics;
  }
};

/// The perfect sampler's realised cost, shared by both of its engines.
struct PerfectMetrics {
  obs::Counter& draws = obs::Registry::global().counter("perfect.draws");
  obs::Counter& steps = obs::Registry::global().counter("perfect.steps");
  /// Reversed steps per draw.
  obs::Histogram& depth = obs::Registry::global().histogram("perfect.depth");

  static PerfectMetrics& get() {
    static PerfectMetrics metrics;
    return metrics;
  }
};

}  // namespace forktail::fjsim
