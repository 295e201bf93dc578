#include "core/predictor.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "queueing/mg1.hpp"
#include "stats/roots.hpp"

namespace forktail::core {

namespace {
void check_percentile(double p) {
  if (!(p > 0.0 && p < 100.0)) {
    throw std::invalid_argument("percentile must be in (0,100)");
  }
}

// Prediction-path telemetry (docs/observability.md): end-to-end latency of
// each quantile evaluation, CDF-inversion effort, and how often the
// analytic bracket collapses (hi <= lo) so the inversion is skipped -- a
// collapsed bracket usually means near-identical nodes where the bounds
// already agree to tolerance.
struct PredictMetrics {
  obs::Counter& calls = obs::Registry::global().counter("predict.calls");
  obs::Counter& bracket_collapsed =
      obs::Registry::global().counter("predict.bracket_collapsed");
  obs::Counter& inversion_unconverged =
      obs::Registry::global().counter("predict.inversion_unconverged");
  obs::Histogram& seconds =
      obs::Registry::global().histogram("predict.seconds");
  obs::Histogram& inversion_iterations =
      obs::Registry::global().histogram("predict.inversion_iterations");
  static PredictMetrics& get() {
    static PredictMetrics m;
    return m;
  }
};

/// Root of the increasing objective f (a CDF minus its level) between
/// analytic bounds lo <= root <= hi.  The bounds are analytic, so rounding
/// can leave f an ulp on the wrong side at either end (with identical
/// nodes the upper bound IS the root), which would read as "root not
/// bracketed": nudge outward before the traced Brent solve.
double invert_between_bounds(const std::function<double(double)>& f,
                             double lo, double hi) {
  if (hi <= lo) {
    PredictMetrics::get().bracket_collapsed.add(1);
    return lo;
  }
  if (f(lo) >= 0.0) return lo;
  int widenings = 0;
  while (f(hi) < 0.0) {
    if (++widenings > 64) return hi;  // objective flat at q: hi is the tail
    hi += hi - lo;
  }
  const stats::RootResult solve = stats::brent_traced(
      f, lo, hi,
      {.x_tolerance = 1e-12 * hi, .f_tolerance = 0.0, .max_iterations = 200});
  PredictMetrics::get().inversion_iterations.record(
      static_cast<double>(solve.iterations));
  if (!solve.converged) PredictMetrics::get().inversion_unconverged.add(1);
  return solve.root;
}
}  // namespace

// ----------------------------------------------------------- TaskCountMixture

TaskCountMixture::TaskCountMixture(std::vector<TaskCountGroup> groups)
    : groups_(std::move(groups)) {
  if (groups_.empty()) throw std::invalid_argument("TaskCountMixture: empty");
  double total = 0.0;
  for (const auto& g : groups_) {
    if (!(g.tasks >= 1.0) || !(g.probability > 0.0)) {
      throw std::invalid_argument("TaskCountMixture: invalid group");
    }
    total += g.probability;
  }
  if (std::fabs(total - 1.0) > 1e-9) {
    throw std::invalid_argument("TaskCountMixture: probabilities must sum to 1");
  }
}

TaskCountMixture TaskCountMixture::fixed(double k) {
  return TaskCountMixture({{k, 1.0}});
}

TaskCountMixture TaskCountMixture::uniform_int(int a, int b, int max_groups) {
  if (a < 1 || b < a) throw std::invalid_argument("uniform_int: bad range");
  const int m = b - a + 1;
  std::vector<TaskCountGroup> groups;
  if (m <= max_groups) {
    groups.reserve(static_cast<std::size_t>(m));
    const double p = 1.0 / static_cast<double>(m);
    for (int k = a; k <= b; ++k) {
      groups.push_back({static_cast<double>(k), p});
    }
  } else {
    // Bin the range: each bin contributes its midpoint k with the bin's
    // probability mass.  F_X^{(k)} varies smoothly in k, so this keeps the
    // CDF error negligible while bounding evaluation cost.  The integer
    // range [a, b] is treated as the continuous interval [a-1/2, b+1/2] so
    // the binned mean equals the exact (a+b)/2.
    groups.reserve(static_cast<std::size_t>(max_groups));
    const double width = static_cast<double>(m) / max_groups;
    for (int i = 0; i < max_groups; ++i) {
      const double lo = static_cast<double>(a) - 0.5 + width * i;
      const double hi = lo + width;
      groups.push_back({0.5 * (lo + hi), width / static_cast<double>(m)});
    }
    // Normalise away rounding drift.
    double total = 0.0;
    for (auto& g : groups) total += g.probability;
    for (auto& g : groups) g.probability /= total;
  }
  return TaskCountMixture(std::move(groups));
}

double TaskCountMixture::mean_tasks() const noexcept {
  double m = 0.0;
  for (const auto& g : groups_) m += g.tasks * g.probability;
  return m;
}

// -------------------------------------------------------- free-function forms

double homogeneous_quantile(const TaskStats& stats, double k, double p) {
  check_percentile(p);
  PredictMetrics::get().calls.add(1);
  const obs::ScopedSpan span(PredictMetrics::get().seconds);
  return GenExp::fit_moments(stats.mean, stats.variance).max_quantile(p / 100.0, k);
}

double homogeneous_cdf(const TaskStats& stats, double k, double x) {
  return GenExp::fit_moments(stats.mean, stats.variance).max_cdf(x, k);
}

double inhomogeneous_quantile(std::span<const TaskStats> nodes, double p) {
  ForkTailPredictor predictor(nodes);
  return predictor.quantile(p);
}

double inhomogeneous_cdf(std::span<const TaskStats> nodes, double x) {
  ForkTailPredictor predictor(nodes);
  return predictor.cdf(x);
}

double mixture_quantile(const TaskStats& stats, const TaskCountMixture& mixture,
                        double p) {
  ForkTailPredictor predictor(stats);
  return predictor.quantile(p, mixture);
}

double mixture_cdf(const TaskStats& stats, const TaskCountMixture& mixture,
                   double x) {
  const GenExp ge = GenExp::fit_moments(stats.mean, stats.variance);
  double f = 0.0;
  for (const auto& g : mixture.groups()) {
    f += g.probability * ge.max_cdf(x, g.tasks);
  }
  return f;
}

WhiteboxTaskModel whitebox_mg1_task_model(double lambda,
                                          const dist::Distribution& service) {
  const dist::Capabilities caps = service.capabilities();
  if (!caps.moment_finite(2)) {
    throw std::invalid_argument(
        "whitebox_mg1_task_model: " + service.name() +
        " has an infinite second service moment (" +
        dist::tail_class_name(caps.tail) + " tail, index " +
        std::to_string(caps.tail_index) +
        "): the M/G/1 sojourn mean itself diverges, so no moment-based "
        "model exists -- use the EVT predictor or a measured baseline");
  }
  WhiteboxTaskModel model;
  if (!caps.moment_finite(3)) {
    // E[S^3] diverges, so Takacs' E[W^2] (Eq. 11) is unavailable.  The
    // Pollaczek-Khinchine mean only needs E[S^2] and stays exact; for the
    // variance, fall back to the exponential-sojourn surrogate
    // variance = mean^2 (the GE fit then reduces to an exponential fit of
    // the correct mean).
    const double es = service.moment(1);
    const double m2 = service.moment(2);
    const double rho = lambda * es;
    if (!(lambda > 0.0) || !(rho < 1.0)) {
      throw std::invalid_argument(
          "whitebox_mg1_task_model: need lambda > 0 and rho < 1");
    }
    const double mean = es + lambda * m2 / (2.0 * (1.0 - rho));
    model.stats = {mean, mean * mean};
    model.degraded = true;
    model.reasons.push_back(
        "E[S^3] is infinite for " + service.name() + " (" +
        dist::tail_class_name(caps.tail) + " tail, index " +
        std::to_string(caps.tail_index) +
        "): Takacs variance unavailable; using the exact PK mean with an "
        "exponential variance surrogate");
    obs::Registry::global().counter("predict.whitebox_degraded").add(1);
    return model;
  }
  const auto r = queueing::mg1_response(lambda, service);
  model.stats = {r.mean, r.variance};
  return model;
}

TaskStats whitebox_mg1_task_stats(double lambda, const dist::Distribution& service) {
  return whitebox_mg1_task_model(lambda, service).stats;
}

double redundancy_quantile(const TaskStats& stats, double d, double p) {
  check_percentile(p);
  if (!(d >= 1.0)) {
    throw std::invalid_argument("redundancy_quantile: d must be >= 1");
  }
  PredictMetrics::get().calls.add(1);
  const obs::ScopedSpan span(PredictMetrics::get().seconds);
  // Min-of-d: invert the per-task CDF at 1 - (1 - q)^{1/d}.  max_quantile
  // at k = 1 is exactly the per-task GE quantile.
  const double q = p / 100.0;
  const double level = -std::expm1(std::log1p(-q) / d);
  return GenExp::fit_moments(stats.mean, stats.variance)
      .max_quantile(level, 1.0);
}

double whitebox_mg1_quantile(double lambda, const dist::Distribution& service,
                             double k, double p) {
  return homogeneous_quantile(whitebox_mg1_task_stats(lambda, service), k, p);
}

// ---------------------------------------------------------- ForkTailPredictor

ForkTailPredictor::ForkTailPredictor(const TaskStats& stats) {
  nodes_.push_back(GenExp::fit_moments(stats.mean, stats.variance));
}

ForkTailPredictor::ForkTailPredictor(std::span<const TaskStats> nodes) {
  if (nodes.empty()) {
    throw std::invalid_argument("ForkTailPredictor: no nodes");
  }
  nodes_.reserve(nodes.size());
  for (const auto& n : nodes) {
    nodes_.push_back(GenExp::fit_moments(n.mean, n.variance));
  }
}

double ForkTailPredictor::cdf(double x, double k) const {
  if (nodes_.size() == 1) {
    const double kk = k > 0.0 ? k : 1.0;
    return nodes_[0].max_cdf(x, kk);
  }
  if (k > 0.0 && std::fabs(k - static_cast<double>(nodes_.size())) > 1e-12) {
    throw std::invalid_argument(
        "ForkTailPredictor: inhomogeneous model is defined over the stored nodes");
  }
  // Eq. 4: product of per-node CDFs, computed in log space for stability.
  double log_f = 0.0;
  for (const auto& ge : nodes_) {
    const double f = ge.max_cdf(x, 1.0);
    if (f <= 0.0) return 0.0;
    log_f += std::log(f);
  }
  return std::exp(log_f);
}

double ForkTailPredictor::quantile(double p, double k) const {
  check_percentile(p);
  PredictMetrics::get().calls.add(1);
  const obs::ScopedSpan span(PredictMetrics::get().seconds);
  const double q = p / 100.0;
  if (nodes_.size() == 1) {
    const double kk = k > 0.0 ? k : 1.0;
    return nodes_[0].max_quantile(q, kk);
  }
  if (k > 0.0 && std::fabs(k - static_cast<double>(nodes_.size())) > 1e-12) {
    throw std::invalid_argument(
        "ForkTailPredictor: inhomogeneous model is defined over the stored nodes");
  }
  // Bracket (Eq. 4 inversion): F(x) <= min_i F_i(x) gives the lower bound
  // max_i q_i(q); F(x) >= prod of q^{1/n} per-node levels gives the upper.
  const double n = static_cast<double>(nodes_.size());
  double lo = 0.0;
  double hi = 0.0;
  for (const auto& ge : nodes_) {
    lo = std::max(lo, ge.max_quantile(q, 1.0));
    hi = std::max(hi, ge.max_quantile(std::pow(q, 1.0 / n), 1.0));
  }
  return invert_between_bounds([&](double x) { return cdf(x) - q; }, lo, hi);
}

double ForkTailPredictor::quantile(double p, const TaskCountMixture& mixture) const {
  check_percentile(p);
  if (nodes_.size() != 1) {
    throw std::invalid_argument(
        "ForkTailPredictor: mixture quantile requires the homogeneous model");
  }
  PredictMetrics::get().calls.add(1);
  const obs::ScopedSpan span(PredictMetrics::get().seconds);
  const double q = p / 100.0;
  const GenExp& ge = nodes_[0];
  double k_min = mixture.groups().front().tasks;
  double k_max = k_min;
  for (const auto& g : mixture.groups()) {
    k_min = std::min(k_min, g.tasks);
    k_max = std::max(k_max, g.tasks);
  }
  // F is decreasing in k, so Eq. 13 at k_min / k_max brackets the root.
  const double lo = ge.max_quantile(q, k_min);
  const double hi = ge.max_quantile(q, k_max);
  const auto f = [&](double x) {
    double acc = 0.0;
    for (const auto& g : mixture.groups()) {
      acc += g.probability * ge.max_cdf(x, g.tasks);
    }
    return acc - q;
  };
  return invert_between_bounds(f, lo, hi);
}

}  // namespace forktail::core
