// SIMD replay engine: public entry points and runtime ISA dispatch.
//
// Selected per run with Engine::kVector on a simulator config; the scenario
// layer selects it for every config vector_supports() accepts.  The engine
// replays the same fork-join models as the legacy scalar/batched paths but
// generates service demands in 8-lane lockstep xoshiro256++ blocks with
// batched inverse-CDF transforms (dist/vec_sampler.hpp), runs the Lindley
// recursion over structure-of-arrays node state, and shards whole-replay
// execution across the thread pool in groups of 8 nodes, merging per-shard
// completion maxima through the same MaxArena row discipline the legacy
// engines use.
//
// Determinism contract (tested in tests/test_replay_vector.cpp):
//   * Results are bit-identical for any thread count / max_parallelism,
//     any batch (tile) size, and any dispatch level (generic/avx2/avx512).
//     The kernels are element-wise plain C++ compiled with
//     -ffp-contract=off, so every level executes the same IEEE operations.
//   * Results are NOT bit-identical to Engine::kLegacy: the engine uses
//     polynomial log/exp kernels, a branch-free uniform_pos clamp, an
//     inverse-CDF LogNormal, pooled demand lanes + counter-hash picks in
//     the subset simulator, and a stable radix sort in the pipeline
//     simulator.  docs/performance.md ("Golden-change policy") documents
//     every deviation with statistical-equivalence evidence.
//
// Dispatch: one implementation, compiled three times behind per-function
// __attribute__((target(...))) levels (see vector_engine_impl.hpp).  The
// level is chosen once per process from CPUID; the FORKTAIL_SIMD
// environment variable ("generic", "avx2", "avx512") forces a level for
// cross-ISA identity testing and is ignored when the CPU lacks it.
#pragma once

#include "fjsim/heterogeneous.hpp"
#include "fjsim/homogeneous.hpp"
#include "fjsim/perfect_sampler.hpp"
#include "fjsim/pipeline.hpp"
#include "fjsim/subset.hpp"

// True when the per-ISA translation units (x86-64-v3 / v4 function targets)
// are compiled in; the generic level exists everywhere.
#if (defined(__x86_64__) || defined(__amd64__) || defined(_M_X64)) && \
    (defined(__GNUC__) || defined(__clang__))
#define FORKTAIL_VE_X86 1
#else
#define FORKTAIL_VE_X86 0
#endif

namespace forktail::fjsim {

/// The vector engine's preconditions, written once: true when
/// Engine::kVector accepts `config`.  The run_*_vector entry points throw
/// ConfigError for any config these reject, and the scenario layer asks
/// them before selecting the engine.  Homogeneous: any policy but
/// kRedundant (kill-on-win cancellation breaks the lockstep Lindley
/// replay).  Subset: additionally replicas == 1 and early_k == 0.
/// Heterogeneous and pipeline: every config.  Perfect sampler:
/// homogeneous mode (subset == false); the subset walk stays legacy.
bool vector_supports(const HomogeneousConfig& config);
bool vector_supports(const SubsetConfig& config);
bool vector_supports(const HeterogeneousConfig& config);
bool vector_supports(const PipelineConfig& config);
bool vector_supports(const PerfectSamplerConfig& config);

HomogeneousResult run_homogeneous_vector(const HomogeneousConfig& config);
HeterogeneousResult run_heterogeneous_vector(const HeterogeneousConfig& config);
SubsetResult run_subset_vector(const SubsetConfig& config);
PipelineResult run_pipeline_vector(const PipelineConfig& config);
PerfectSampleResult run_perfect_vector(const PerfectSamplerConfig& config);

/// Name of the ISA level the vector engine dispatches to in this process:
/// "avx512", "avx2", or "generic".  Resolved once (first call), honoring
/// FORKTAIL_SIMD when set and supported.
const char* vector_dispatch_level();

}  // namespace forktail::fjsim
