// Per-task reference replay for the legacy fjsim engines (tests and
// bench_replay only; the library does not link it).
//
// Each node draws one service demand per task through a FastNode's virtual
// Distribution::sample().  The arrivals, warm-up, node streams and result
// assembly are the library's own (fjsim::replay_node_major, run_pipeline's
// per-node seam), so only the per-node replay differs, and the tiled
// engines must match it bit for bit at every tile size.
#pragma once

#include "fjsim/heterogeneous.hpp"
#include "fjsim/homogeneous.hpp"
#include "fjsim/pipeline.hpp"

namespace forktail::fjsim {

HomogeneousResult scalar_homogeneous(const HomogeneousConfig& config);
HeterogeneousResult scalar_heterogeneous(const HeterogeneousConfig& config);
PipelineResult scalar_pipeline(const PipelineConfig& config);

}  // namespace forktail::fjsim
