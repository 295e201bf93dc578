// Perfect (exact-stationary) sampling for the homogeneous and subset
// fork-join engines, after the coupling-from-the-past treatment of
// fork-join queues by Chen & Shi (arXiv 1607.00748).
//
// The replay engines approximate stationarity by discarding a warm-up
// prefix; every golden and error band inherits that bias.  This sampler
// draws from the *exact* stationary law instead, by running Loynes'
// scheme backwards in time: the stationary workload of fork node i seen
// by a Poisson arrival (PASTA) is
//
//   W_i = sup_{j >= 0} sum_{m=1..j} (B_{i,m} S_{i,m} - A_m),
//
// where A_m are the (shared!) reversed interarrival gaps, S_{i,m} the
// service draws and B_{i,m} the subset-thinning marks (identically 1 for
// the homogeneous engine).  The running prefix and running max are
// maintained incrementally; the walk has negative drift under stability,
// so the max stops moving once the prefix has fallen far enough behind.
//
// The stopping rule is *certified* rather than heuristic: with
// theta = theta_safety * the Lundberg root of the reversed walk
// (dist::lundberg_root), the probability that ANY node's max still grows
// beyond the current horizon is at most
//
//   sum_i e^{-theta (M_i - P_i)}        (Lundberg's inequality + union),
//
// and the walk is run until that certificate drops below `epsilon`
// (default 2^-40).  The returned draw is therefore epsilon-perfect: it
// under-estimates the true stationary workload with probability < epsilon
// per draw and is exact otherwise.  Heavy-tailed services without an MGF
// have no Lundberg certificate; they are refused with a ConfigError
// instead of silently degrading to a heuristic.
//
// Determinism: draw d is a pure function of (seed, d) under both engines,
// rooted at Rng::split_seed(seed, d), so draws are prefix-stable and
// bit-identical across runs:
//   * Engine::kLegacy (the reference) consumes the scalar child stream
//     Rng(seed).split(d) with a fixed per-step draw order (gap, then subset
//     choice, then service draws in chosen-node order).
//   * Engine::kVector (homogeneous mode only; fjsim/vector_engine.hpp)
//     draws from two 8-lane samplers reseeded per draw: gap lane l from
//     split_seed(root, l), service lane l from split_seed(root, 8 + l).
//     Each check_interval block fills ceil(ci / 8) gap rows and
//     ceil(ci N / 8) service rows and consumes them row-major (step c takes
//     gap c and services c N .. c N + N - 1); the tagged request takes the
//     first N values of one more service fill.  The lane transforms are
//     the vector engine's polynomial kernels, so the values differ from
//     kLegacy's in the last ulps and the streams differ outright: the two
//     engines agree in law, not bit for bit.  The walk runs on the calling
//     thread and is bit-identical at every dispatch level.
#pragma once

#include <cstdint>
#include <vector>

#include "dist/distribution.hpp"
#include "fjsim/config.hpp"
#include "fjsim/subset.hpp"
#include "stats/welford.hpp"

namespace forktail::fjsim {

struct PerfectSamplerConfig {
  std::size_t num_nodes = 10;
  dist::DistPtr service;
  /// Nominal per-server utilization; the request rate derives exactly as
  /// in the replay engines (homogeneous: rho / E[S]; subset:
  /// rho N / (E[k] E[S])).
  double load = 0.8;
  /// false: homogeneous (every request forks to all N nodes).
  /// true: subset (k distinct nodes per request).
  bool subset = false;
  KMode k_mode = KMode::kFixed;
  int k_fixed = 100;
  int k_lo = 0;
  int k_hi = 0;
  /// Early return at the early_k-th task completion; 0 = full barrier.
  int early_k = 0;
  std::uint64_t draws = 10000;
  std::uint64_t seed = 1;
  /// Per-draw failure budget of the coupling certificate.
  double epsilon = 0x1p-40;
  /// Fraction of the Lundberg root used as the certificate exponent;
  /// (0, 1].  Values below 1 trade a slightly deeper walk for slack
  /// against the root's own bisection tolerance.
  double theta_safety = 0.9;
  /// Reversed steps between certificate evaluations (each costs O(N)).
  std::uint64_t check_interval = 16;
  /// Hard cap on reversed steps per draw; exceeding it is a runtime error
  /// (it means the certificate cannot coalesce, e.g. load ~ 1).
  std::uint64_t max_steps = 50000000;
  /// kLegacy (the reference, every known-answer pin) or kVector
  /// (homogeneous mode only: vector_supports() in fjsim/vector_engine.hpp).
  Engine engine = Engine::kLegacy;
};

/// Both engines also split the pooled task moments into this many batches
/// of consecutive draws (batch b holds draws [b D / B, (b + 1) D / B) of
/// D).  Draws are independent, so the batches are independent replicates
/// of the moment estimate, and their spread measures the sampling noise of
/// anything computed from task_stats.
inline constexpr std::size_t kPerfectBatches = 20;

struct PerfectSampleResult {
  std::vector<double> responses;  ///< one exact-stationary response per draw
  stats::Welford task_stats;      ///< pooled task sojourns (W_i + S'_i)
  /// task_stats per batch of draws (kPerfectBatches entries; a batch is
  /// empty only when draws < kPerfectBatches).
  std::vector<stats::Welford> batch_task_stats;
  double lambda = 0.0;            ///< derived request arrival rate
  double mean_k = 0.0;            ///< E[fan-out]
  std::uint64_t total_tasks = 0;
  double theta = 0.0;             ///< certificate exponent actually used
  double mean_depth = 0.0;        ///< mean reversed steps per draw
  std::uint64_t max_depth = 0;    ///< deepest draw
};

/// Throws fjsim::ConfigError on invalid or uncertifiable configurations
/// (no MGF, unstable load, bad k range), std::runtime_error if a draw
/// exceeds max_steps.  Runs the engine `config.engine` names.
PerfectSampleResult run_perfect(const PerfectSamplerConfig& config);

/// What both engines derive from a config before walking: the request
/// rate, E[fan-out] and the certificate exponent.  Validates first (throws
/// ConfigError like run_perfect).
struct PerfectWalkParams {
  double lambda = 0.0;
  double mean_k = 0.0;
  double theta = 0.0;
};
PerfectWalkParams perfect_walk_params(const PerfectSamplerConfig& config);

/// The batch of batch_task_stats that draw d of `draws` falls in.
inline std::size_t perfect_batch(std::uint64_t d, std::uint64_t draws) {
  return static_cast<std::size_t>(d * kPerfectBatches / draws);
}

}  // namespace forktail::fjsim
