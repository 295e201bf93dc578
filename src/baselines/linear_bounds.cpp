#include "baselines/linear_bounds.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "dist/transforms.hpp"
#include "queueing/laplace.hpp"
#include "stats/roots.hpp"
#include "stats/special_functions.hpp"

namespace forktail::baselines {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Relative safety pad applied to quantile bounds recovered through
/// numerical Laplace inversion (the inversion is exact only up to ~1e-8
/// absolute CDF error; the pad keeps the bracket conservative).
constexpr double kInversionPad = 1e-4;

/// Chernoff optimisation grid density over (0, theta*).
constexpr int kChernoffGrid = 128;

/// How the single-node stationary M/G/1 sojourn distribution F_T is
/// evaluated.  Three tiers, most exact first:
///   kExact    -- exponential service: T ~ Exp(mu - lambda), closed form.
///   kLst      -- service with an LST: Pollaczek-Khinchine inversion
///                (queueing::mg1_response_cdf), bisected and padded.
///   kChernoff -- MGF only: the optimized Chernoff bound on the PK
///                transform gives certified tail upper bounds (hence
///                quantile uppers) but no lower-bound information.
struct SojournModel {
  enum class Kind { kExact, kLst, kChernoff } kind = Kind::kChernoff;
  double node_lambda = 0.0;
  double exp_rate = 0.0;  ///< mu - lambda (kExact only)
  double pk_mean = 0.0;   ///< E[T] = E[S] + lambda E[S^2] / (2 (1 - rho))
  const dist::Distribution* service = nullptr;
  // Chernoff grid over (0, theta*): log E[e^{theta T}] per theta (kChernoff
  // only).
  std::vector<double> thetas;
  std::vector<double> log_mgf_t;
};

/// Upper end of the bisection bracket for nondecreasing f: `hint` doubled
/// until f reaches `target` (at most 200 doublings).
template <typename F>
double doubled_upper_end(F& f, double target, double hint) {
  double hi = std::max(hint, 1e-12);
  int guard = 0;
  while (f(hi) < target && guard++ < 200) hi *= 2.0;
  return hi;
}

/// Smallest t >= 0 with f(t) >= target, for nondecreasing f.
template <typename F>
double invert_nondecreasing(F&& f, double target, double hint) {
  return stats::bisect([&](double x) { return f(x) < target; }, 0.0,
                       doubled_upper_end(f, target, hint))
      .hi;
}

/// Largest t with f(t) <= target (the left edge of the crossing), for
/// nondecreasing f; conservative for lower quantile bounds.
template <typename F>
double invert_nondecreasing_below(F&& f, double target, double hint) {
  return stats::bisect([&](double x) { return f(x) <= target; }, 0.0,
                       doubled_upper_end(f, target, hint))
      .lo;
}

bool build_model(const BaselineInput& in, SojournModel& model) {
  if (in.service == nullptr) return false;
  const dist::Distribution& service = *in.service;
  const double lambda = in.node_lambda();
  const double es = service.moment(1);
  if (!(lambda > 0.0) || !(es > 0.0)) return false;
  const double rho = lambda * es;
  if (!(rho < 1.0)) return false;

  // Tier selection is a pure capability query: memoryless (the exponential
  // family) admits the exact M/M/1 sojourn law, an LST admits numerical PK
  // inversion, an MGF admits the Chernoff bound.  Anything heavier has no
  // certified machinery at all -- and in that case E[S^2] may be infinite,
  // so the PK mean below must not be computed first.
  const dist::Capabilities caps = service.capabilities();
  if (!(caps.memoryless || caps.has_lst || caps.has_mgf)) {
    return false;
  }

  model.node_lambda = lambda;
  model.service = &service;
  model.pk_mean = es + lambda * service.moment(2) / (2.0 * (1.0 - rho));

  if (caps.memoryless) {
    model.kind = SojournModel::Kind::kExact;
    model.exp_rate = 1.0 / es - lambda;
    return true;
  }
  if (caps.has_lst) {
    model.kind = SojournModel::Kind::kLst;
    return true;
  }
  model.kind = SojournModel::Kind::kChernoff;
  const double theta_star = dist::lundberg_root(service, lambda, 1.0);
  model.thetas.reserve(kChernoffGrid);
  model.log_mgf_t.reserve(kChernoffGrid);
  for (int i = 1; i <= kChernoffGrid; ++i) {
    const double theta = theta_star * static_cast<double>(i) /
                         static_cast<double>(kChernoffGrid + 1);
    const double ms = dist::mgf(service, theta);
    if (!std::isfinite(ms)) continue;
    // PK transform at a real negative argument:
    //   E[e^{theta T}] = MGF_S(theta) (1 - rho) theta
    //                    / (theta - lambda (MGF_S(theta) - 1)).
    const double denom = theta - lambda * (ms - 1.0);
    if (!(denom > 0.0)) continue;  // at/beyond the transform pole
    const double log_mgf =
        std::log(ms) + std::log1p(-rho) + std::log(theta) - std::log(denom);
    model.thetas.push_back(theta);
    model.log_mgf_t.push_back(log_mgf);
  }
  return !model.thetas.empty();
}

double lst_cdf(const SojournModel& model, double t) {
  static thread_local queueing::LaplaceInverter inverter;
  if (t <= 0.0) return 0.0;
  return std::clamp(
      queueing::mg1_response_cdf(model.node_lambda, *model.service, t,
                                 inverter),
      0.0, 1.0);
}

/// Certified upper bound on F_T^{-1}(target): smallest t we can prove has
/// P(T > t) <= 1 - target.
double sojourn_upper_quantile(const SojournModel& model, double target) {
  target = std::clamp(target, 0.0, 1.0 - 1e-15);
  switch (model.kind) {
    case SojournModel::Kind::kExact:
      return -std::log1p(-target) / model.exp_rate;
    case SojournModel::Kind::kLst: {
      // Absolute slack absorbs the ~1e-8 inversion error; the relative pad
      // keeps the discretised bisection conservative.
      const double slack = std::min(1e-6, 0.125 * (1.0 - target));
      const double t = invert_nondecreasing(
          [&](double x) { return lst_cdf(model, x); }, target + slack,
          model.pk_mean);
      return t * (1.0 + kInversionPad);
    }
    case SojournModel::Kind::kChernoff: {
      const double log_tail = std::log1p(-target);  // ln(1 - target)
      double best = kInf;
      for (std::size_t i = 0; i < model.thetas.size(); ++i) {
        const double cand =
            std::max(0.0, (model.log_mgf_t[i] - log_tail) / model.thetas[i]);
        best = std::min(best, cand);
      }
      return best;
    }
  }
  return kInf;
}

/// Certified lower bound on F_T^{-1}(target): largest t we can prove has
/// F_T(t) <= target.  0 when the tier cannot upper-bound F (kChernoff).
double sojourn_lower_quantile(const SojournModel& model, double target) {
  if (!(target > 0.0)) return 0.0;
  target = std::min(target, 1.0 - 1e-15);
  switch (model.kind) {
    case SojournModel::Kind::kExact:
      return -std::log1p(-target) / model.exp_rate;
    case SojournModel::Kind::kLst: {
      const double slack = std::min(1e-6, 0.125 * target);
      const double t = invert_nondecreasing_below(
          [&](double x) { return lst_cdf(model, x); }, target - slack,
          model.pk_mean);
      return std::max(0.0, t * (1.0 - kInversionPad));
    }
    case SojournModel::Kind::kChernoff:
      return 0.0;
  }
  return 0.0;
}

/// Quantile of the k-th order statistic of n iid *service* draws: the
/// smallest t with I_{G(t)}(k, n-k+1) >= q.  Tasks' sojourns dominate
/// their own service draws pathwise, so this lower-bounds the true
/// response quantile under any dependence.
double service_order_stat_quantile(const dist::Distribution& service, int n,
                                   int k, double q) {
  // First invert the regularized incomplete beta on [0, 1]; the left edge
  // is conservative for a lower bound...
  const auto below = [&](double x) {
    return stats::regularized_incomplete_beta(
               static_cast<double>(k), static_cast<double>(n - k + 1), x) < q;
  };
  const double u = stats::bisect(below, 0.0, 1.0).lo;
  if (!(u > 0.0)) return 0.0;
  // ...then pull it back through the (exact, analytic) service CDF.
  return invert_nondecreasing_below(
      [&](double t) { return service.cdf(t); }, u, service.moment(1));
}

bool is_uniform_mixture(const BaselineInput& in) {
  return in.k_lo > 0 && in.k_hi > in.k_lo;
}

Bracket fixed_k_bracket(const BaselineInput& in, int fanout, int join,
                        double percentile) {
  SojournModel model;
  if (!build_model(in, model)) return Bracket{0.0, kInf, false};
  const double q = std::clamp(percentile / 100.0, 1e-12, 1.0 - 1e-12);
  const double n = static_cast<double>(fanout);
  const double k = static_cast<double>(join);

  // Upper: Boole/Markov on the exceedance count -- P(X_(k:n) > t)
  // <= n P(T > t) / (n - k + 1) under any dependence.
  const double markov_target = 1.0 - (1.0 - q) * (n - k + 1.0) / n;
  double upper = sojourn_upper_quantile(model, markov_target);
  // Tighter when provable: the homogeneous engine's task sojourns are
  // associated (increasing functions of the independent family
  // {-A_m} u {S_im}), so the max is dominated by the max of n iid copies.
  if (in.homogeneous_topology && in.fanout == fanout) {
    const double assoc_target = std::pow(q, 1.0 / n);
    upper = std::min(upper, sojourn_upper_quantile(model, assoc_target));
  }

  // Lower: service-draw order statistic (any dependence) and the
  // count-Markov marginal bound P(X_(k:n) <= t) <= n F(t) / k.
  double lower =
      service_order_stat_quantile(*model.service, fanout, join, q);
  lower = std::max(lower, sojourn_lower_quantile(model, q * k / n));
  lower = std::min(lower, upper);
  return Bracket{lower, upper, true};
}

}  // namespace

bool linear_bounds_applicable(const BaselineInput& in) {
  if (!in.nk_clean || !in.single_server_fifo) return false;
  if (in.service == nullptr) return false;
  if (is_uniform_mixture(in)) {
    if (in.k_lo < 1) return false;
    // Early-join mixtures need the join index feasible at every fan-out.
    if (in.join != in.fanout && in.join > in.k_lo) return false;
  } else {
    if (in.fanout < 1 || in.join < 1 || in.join > in.fanout) return false;
  }
  SojournModel model;
  return build_model(in, model);
}

Bracket linear_bounds_bracket(const BaselineInput& in, double percentile) {
  if (is_uniform_mixture(in)) {
    // Nested-subset coupling: with a full barrier the response is
    // stochastically increasing in the drawn fan-out, with a fixed early
    // join it is decreasing (the join-th smallest over more tasks).
    if (in.join == in.fanout) {
      const Bracket lo = fixed_k_bracket(in, in.k_lo, in.k_lo, percentile);
      const Bracket hi = fixed_k_bracket(in, in.k_hi, in.k_hi, percentile);
      return Bracket{lo.lower, hi.upper, lo.certified && hi.certified};
    }
    const Bracket lo = fixed_k_bracket(in, in.k_hi, in.join, percentile);
    const Bracket hi = fixed_k_bracket(in, in.k_lo, in.join, percentile);
    return Bracket{lo.lower, hi.upper, lo.certified && hi.certified};
  }
  return fixed_k_bracket(in, in.fanout, in.join, percentile);
}

}  // namespace forktail::baselines
