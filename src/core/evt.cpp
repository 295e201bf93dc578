#include "core/evt.hpp"

#include <cmath>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "stats/roots.hpp"

namespace forktail::core {

namespace {

/// Pakes first-order sojourn tail for an M/G/1 queue with regularly
/// varying service: P(T > x) ~ wait_coeff * x^{1-alpha} + c * x^{-alpha}.
struct SojournTail {
  double wait_coeff;  ///< lambda c / ((1 - rho)(alpha - 1))
  double c;           ///< service tail constant
  double alpha;

  double operator()(double x) const {
    return wait_coeff * std::pow(x, 1.0 - alpha) + c * std::pow(x, -alpha);
  }
};

/// Invert tail(x) = level for the strictly decreasing asymptote.  Seeded
/// from the dominant waiting-time term, then bracketed by doubling and
/// bisected to relative precision.
double invert_tail(const SojournTail& tail, double level) {
  double x0 = std::pow(tail.wait_coeff / level, 1.0 / (tail.alpha - 1.0));
  if (!(x0 > 0.0) || !std::isfinite(x0)) x0 = 1.0;
  double lo = x0;
  double hi = x0;
  for (int i = 0; i < 200 && tail(lo) < level; ++i) lo *= 0.5;
  for (int i = 0; i < 200 && tail(hi) >= level; ++i) hi *= 2.0;
  if (!(tail(lo) >= level && tail(hi) < level)) {
    throw std::runtime_error("evt_max_quantile: failed to bracket the tail");
  }
  return stats::bisect([&](double x) { return tail(x) >= level; }, lo, hi).lo;
}

}  // namespace

EvtPrediction evt_max_quantile(const TaskStats& stats, double k, double p,
                               double node_lambda,
                               const dist::Distribution& service) {
  if (!(p > 0.0 && p < 100.0)) {
    throw std::invalid_argument("evt_max_quantile: percentile must be in (0,100)");
  }
  if (!(k >= 1.0)) {
    throw std::invalid_argument("evt_max_quantile: k must be >= 1");
  }
  const dist::Capabilities caps = service.capabilities();
  const double q = p / 100.0;

  EvtPrediction out;
  const bool regularly_varying =
      caps.tail == dist::TailClass::kRegularlyVarying &&
      std::isfinite(caps.tail_index) && caps.tail_index > 1.0 &&
      caps.tail_scale > 0.0;
  const double rho =
      node_lambda > 0.0 ? node_lambda * service.moment(1) : 1.0;
  if (!regularly_varying || !(rho < 1.0)) {
    // Gumbel branch: the GE max quantile IS the light-tail extreme-value
    // model (its tail is exponential, and Eq. 13 solves the exact max-of-k
    // level), so no correction is applied.
    out.value = homogeneous_quantile(stats, k, p);
    return out;
  }

  // Frechet branch.  Per-task tail level for the max of k iid responses:
  // q^{1/k} per task, i.e. tail level 1 - q^{1/k} (expm1 keeps precision
  // for large k where the level is ~ -ln(q)/k).
  const double level = -std::expm1(std::log(q) / k);
  const SojournTail tail{
      node_lambda * caps.tail_scale /
          ((1.0 - rho) * (caps.tail_index - 1.0)),
      caps.tail_scale, caps.tail_index};
  const double x_evt = invert_tail(tail, level);

  // Splice: the asymptote is only valid deep in the tail; in the body
  // region the GE fit of the measured moments is sharper.  Taking the max
  // hands over exactly where the heavy tail starts to dominate.
  const double x_body = homogeneous_quantile(stats, k, p);
  out.value = std::max(x_body, x_evt);
  out.frechet = true;
  out.tail_index = caps.tail_index;
  obs::Registry::global().counter("predict.evt_frechet").add(1);
  return out;
}

}  // namespace forktail::core
