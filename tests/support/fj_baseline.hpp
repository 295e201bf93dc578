// Frozen reference driver for sim::run_fj_simulation (tests and
// bench_cluster only; the library does not link it).
#pragma once

#include "sim/network.hpp"

namespace forktail::sim {

/// The pre-calendar-queue implementation of run_fj_simulation: the original
/// callback driver on the binary-heap engine (support/heap_engine.hpp).
/// Frozen as the determinism reference and the bench_cluster speedup
/// baseline; it honours `record_responses` and leaves `response_histogram`
/// empty.
FjResult run_fj_simulation_baseline(const FjConfig& config);

}  // namespace forktail::sim
