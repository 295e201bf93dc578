// Runtime ISA dispatch for the vector replay engine.
//
// The implementation is compiled three times (vector_engine_generic /
// _avx2 / _avx512 .cpp); this TU picks one level per process from CPUID the
// first time the engine runs.  All levels are bit-identical (element-wise
// kernels, -ffp-contract=off), so the choice only affects throughput --
// which is exactly what lets the FORKTAIL_SIMD override ("generic", "avx2",
// "avx512") serve as a cross-ISA identity test hook rather than a
// correctness knob.  An override naming an unavailable or unknown level
// falls back to auto-detection.
#include "fjsim/vector_engine.hpp"

#include <cstdlib>
#include <cstring>

namespace forktail::fjsim {

namespace ve_generic {
HomogeneousResult run_homogeneous(const HomogeneousConfig& config);
HeterogeneousResult run_heterogeneous(const HeterogeneousConfig& config);
SubsetResult run_subset(const SubsetConfig& config);
PipelineResult run_pipeline(const PipelineConfig& config);
PerfectSampleResult run_perfect(const PerfectSamplerConfig& config);
}  // namespace ve_generic

#if FORKTAIL_VE_X86
namespace ve_avx2 {
HomogeneousResult run_homogeneous(const HomogeneousConfig& config);
HeterogeneousResult run_heterogeneous(const HeterogeneousConfig& config);
SubsetResult run_subset(const SubsetConfig& config);
PipelineResult run_pipeline(const PipelineConfig& config);
PerfectSampleResult run_perfect(const PerfectSamplerConfig& config);
}  // namespace ve_avx2
namespace ve_avx512 {
HomogeneousResult run_homogeneous(const HomogeneousConfig& config);
HeterogeneousResult run_heterogeneous(const HeterogeneousConfig& config);
SubsetResult run_subset(const SubsetConfig& config);
PipelineResult run_pipeline(const PipelineConfig& config);
PerfectSampleResult run_perfect(const PerfectSamplerConfig& config);
}  // namespace ve_avx512
#endif

namespace {

struct Level {
  const char* name;
  HomogeneousResult (*homogeneous)(const HomogeneousConfig&);
  HeterogeneousResult (*heterogeneous)(const HeterogeneousConfig&);
  SubsetResult (*subset)(const SubsetConfig&);
  PipelineResult (*pipeline)(const PipelineConfig&);
  PerfectSampleResult (*perfect)(const PerfectSamplerConfig&);
};

constexpr Level kGeneric{"generic", &ve_generic::run_homogeneous,
                         &ve_generic::run_heterogeneous,
                         &ve_generic::run_subset, &ve_generic::run_pipeline,
                         &ve_generic::run_perfect};
#if FORKTAIL_VE_X86
constexpr Level kAvx2{"avx2", &ve_avx2::run_homogeneous,
                      &ve_avx2::run_heterogeneous, &ve_avx2::run_subset,
                      &ve_avx2::run_pipeline, &ve_avx2::run_perfect};
constexpr Level kAvx512{"avx512", &ve_avx512::run_homogeneous,
                        &ve_avx512::run_heterogeneous, &ve_avx512::run_subset,
                        &ve_avx512::run_pipeline, &ve_avx512::run_perfect};
#endif

Level pick_level() {
#if FORKTAIL_VE_X86
  const bool has_avx2 = __builtin_cpu_supports("avx2") &&
                        __builtin_cpu_supports("fma") &&
                        __builtin_cpu_supports("bmi2");
  const bool has_avx512 = has_avx2 && __builtin_cpu_supports("avx512f") &&
                          __builtin_cpu_supports("avx512dq") &&
                          __builtin_cpu_supports("avx512bw") &&
                          __builtin_cpu_supports("avx512vl") &&
                          __builtin_cpu_supports("avx512cd");
  if (const char* force = std::getenv("FORKTAIL_SIMD")) {
    if (std::strcmp(force, "generic") == 0) return kGeneric;
    if (std::strcmp(force, "avx2") == 0 && has_avx2) return kAvx2;
    if (std::strcmp(force, "avx512") == 0 && has_avx512) return kAvx512;
    // Unknown or unsupported override: fall through to auto-detection.
  }
  if (has_avx512) return kAvx512;
  if (has_avx2) return kAvx2;
#else
  if (const char* force = std::getenv("FORKTAIL_SIMD")) {
    (void)force;  // only "generic" exists off x86
  }
#endif
  return kGeneric;
}

const Level& active_level() {
  // Resolved once per process (thread-safe static init); FORKTAIL_SIMD is
  // read at that moment only.
  static const Level level = pick_level();
  return level;
}

}  // namespace

bool vector_supports(const HomogeneousConfig& config) {
  return config.policy != Policy::kRedundant;
}

bool vector_supports(const SubsetConfig& config) {
  return config.policy != Policy::kRedundant && config.replicas == 1 &&
         config.early_k == 0;
}

bool vector_supports(const HeterogeneousConfig& /*config*/) { return true; }

bool vector_supports(const PipelineConfig& /*config*/) { return true; }

bool vector_supports(const PerfectSamplerConfig& config) {
  return !config.subset;
}

HomogeneousResult run_homogeneous_vector(const HomogeneousConfig& config) {
  return active_level().homogeneous(config);
}

HeterogeneousResult run_heterogeneous_vector(const HeterogeneousConfig& config) {
  return active_level().heterogeneous(config);
}

SubsetResult run_subset_vector(const SubsetConfig& config) {
  return active_level().subset(config);
}

PipelineResult run_pipeline_vector(const PipelineConfig& config) {
  return active_level().pipeline(config);
}

PerfectSampleResult run_perfect_vector(const PerfectSamplerConfig& config) {
  return active_level().perfect(config);
}

const char* vector_dispatch_level() { return active_level().name; }

}  // namespace forktail::fjsim
