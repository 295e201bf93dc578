#include "baselines/linear_bounds.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "dist/basic.hpp"
#include "dist/transforms.hpp"
#include "queueing/laplace.hpp"
#include "stats/roots.hpp"
#include "stats/special_functions.hpp"

namespace forktail::baselines {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

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
  double rho = 0.0;
  double exp_rate = 0.0;  ///< mu - lambda (kExact only)
  double pk_mean = 0.0;   ///< E[T] = E[S] + lambda E[S^2] / (2 (1 - rho))
  const dist::Distribution* service = nullptr;
  double pad = 0.0;  ///< relative inversion pad (kLst)
  // Chernoff grid over (0, theta*): log E[e^{theta T}] per theta.  Built
  // whenever the service has an MGF (also used for robust mean bounds in
  // the kLst tier).
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

bool build_model(const BaselineInput& in, const LinearBoundsConfig& config,
                 SojournModel& model) {
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
  model.rho = rho;
  model.service = &service;
  model.pad = config.inversion_pad;
  model.pk_mean = es + lambda * service.moment(2) / (2.0 * (1.0 - rho));

  if (caps.memoryless) {
    model.kind = SojournModel::Kind::kExact;
    model.exp_rate = 1.0 / es - lambda;
  } else if (caps.has_lst) {
    model.kind = SojournModel::Kind::kLst;
  } else {
    model.kind = SojournModel::Kind::kChernoff;
  }

  // The Chernoff grid doubles as the robust mean-bound engine for the kLst
  // tier, so build it for every MGF-capable family.
  if (!caps.memoryless && caps.has_mgf) {
    const double theta_star = dist::lundberg_root(service, lambda, 1.0);
    const int grid = std::max(2, config.chernoff_grid);
    model.thetas.reserve(static_cast<std::size_t>(grid));
    model.log_mgf_t.reserve(static_cast<std::size_t>(grid));
    for (int i = 1; i <= grid; ++i) {
      const double theta = theta_star * static_cast<double>(i) /
                           static_cast<double>(grid + 1);
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
    if (model.kind == SojournModel::Kind::kChernoff && model.thetas.empty()) {
      return false;
    }
  }
  return true;
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
      return t * (1.0 + model.pad);
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
      return std::max(0.0, t * (1.0 - model.pad));
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

/// Robust mean bound E[max of j dependent copies of T]
///   <= integral of min(1, j P(T > t)) dt,
/// evaluated per tier.  j may be fractional (the direct order-statistic
/// route uses j_eff = n / (n - k + 1)).
double robust_max_mean_upper(const SojournModel& model, double j) {
  if (!(j >= 1.0)) j = 1.0;
  const double log_j = std::log(j);
  switch (model.kind) {
    case SojournModel::Kind::kExact:
      // integral min(1, j e^{-r t}) dt = (1 + ln j) / r.
      return (1.0 + log_j) / model.exp_rate;
    case SojournModel::Kind::kLst:
    case SojournModel::Kind::kChernoff: {
      // Tail bounded by e^{logM - theta t}: the integral of
      // min(1, j e^{logM - theta t}) is (ln j + logM + 1)/theta when the
      // crossing point is positive, else j e^{logM}/theta.
      double best = kInf;
      for (std::size_t i = 0; i < model.thetas.size(); ++i) {
        const double log_level = log_j + model.log_mgf_t[i];
        const double theta = model.thetas[i];
        const double cand = log_level > 0.0 ? (log_level + 1.0) / theta
                                            : std::exp(log_level) / theta;
        best = std::min(best, cand);
      }
      return best;
    }
  }
  return kInf;
}

/// Certified lower bound on E[max of j iid service draws]: right-endpoint
/// Riemann sum of the (decreasing) integrand 1 - G(t)^j, truncated --
/// both choices under-estimate.
double service_max_mean_lower(const dist::Distribution& service, int j,
                              int grid) {
  double t_max = std::max(service.moment(1), 1e-12);
  int guard = 0;
  while (static_cast<double>(j) * (1.0 - service.cdf(t_max)) > 1e-9 &&
         guard++ < 200) {
    t_max *= 2.0;
  }
  const int cells = std::max(grid, 64);
  const double h = t_max / cells;
  double total = 0.0;
  for (int i = 1; i <= cells; ++i) {
    const double g = service.cdf(h * i);
    total += h * (1.0 - std::pow(g, static_cast<double>(j)));
  }
  return total;
}

/// Certified lower bound on E[k-th order statistic of n iid service
/// draws] by the same right-endpoint rule on 1 - I_{G(t)}(k, n-k+1).
double service_order_stat_mean_lower(const dist::Distribution& service, int n,
                                     int k, int grid) {
  double t_max = std::max(service.moment(1), 1e-12);
  int guard = 0;
  while (1.0 - stats::regularized_incomplete_beta(
                   static_cast<double>(k), static_cast<double>(n - k + 1),
                   service.cdf(t_max)) >
             1e-9 &&
         guard++ < 200) {
    t_max *= 2.0;
  }
  const int cells = std::max(grid, 64);
  const double h = t_max / cells;
  double total = 0.0;
  for (int i = 1; i <= cells; ++i) {
    const double g = service.cdf(h * i);
    total += h * (1.0 - stats::regularized_incomplete_beta(
                            static_cast<double>(k),
                            static_cast<double>(n - k + 1), g));
  }
  return total;
}

/// Natural-log cap on the Wang-transform weights: beyond e^30 the
/// alternating sum loses all precision in double and the transform bracket
/// is abandoned in favour of the direct order-statistic one.
constexpr double kTransformLogCap = 30.0;

bool is_uniform_mixture(const BaselineInput& in) {
  return in.k_lo > 0 && in.k_hi > in.k_lo;
}

}  // namespace

LinearBoundsBaseline::LinearBoundsBaseline(LinearBoundsConfig config)
    : config_(config) {}

bool LinearBoundsBaseline::applicable(const BaselineInput& in) const {
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
  return build_model(in, config_, model);
}

double LinearBoundsBaseline::predict(const BaselineInput& in,
                                     double percentile) const {
  return bracket(in, percentile).upper;
}

Bracket LinearBoundsBaseline::bracket(const BaselineInput& in,
                                      double percentile) const {
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

Bracket LinearBoundsBaseline::fixed_k_bracket(const BaselineInput& in,
                                              int fanout, int join,
                                              double percentile) const {
  SojournModel model;
  if (!build_model(in, config_, model)) return Bracket{0.0, kInf, false};
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

Bracket LinearBoundsBaseline::mean_bracket(const BaselineInput& in) const {
  if (is_uniform_mixture(in)) {
    if (in.join == in.fanout) {
      const Bracket lo = fixed_k_mean_bracket(in, in.k_lo, in.k_lo);
      const Bracket hi = fixed_k_mean_bracket(in, in.k_hi, in.k_hi);
      return Bracket{lo.lower, hi.upper, lo.certified && hi.certified};
    }
    const Bracket lo = fixed_k_mean_bracket(in, in.k_hi, in.join);
    const Bracket hi = fixed_k_mean_bracket(in, in.k_lo, in.join);
    return Bracket{lo.lower, hi.upper, lo.certified && hi.certified};
  }
  return fixed_k_mean_bracket(in, in.fanout, in.join);
}

Bracket LinearBoundsBaseline::fixed_k_mean_bracket(const BaselineInput& in,
                                                   int fanout,
                                                   int join) const {
  SojournModel model;
  if (!build_model(in, config_, model)) return Bracket{0.0, kInf, false};
  const int n = fanout;
  const int k = join;
  const bool assoc =
      in.homogeneous_topology && in.fanout == fanout &&
      model.kind == SojournModel::Kind::kExact;

  // Certified bounds on E[M_j] (max over j of the request's tasks).
  const auto max_upper = [&](int j) {
    double u = robust_max_mean_upper(model, static_cast<double>(j));
    if (assoc) {
      // Associated family: E[max of j] <= E[max of j iid] = H_j / rate.
      u = std::min(u, stats::harmonic_number(static_cast<double>(j)) /
                          model.exp_rate);
    }
    return u;
  };
  const auto max_lower = [&](int j) {
    return std::max(model.pk_mean,
                    service_max_mean_lower(*model.service, j,
                                           config_.mean_grid));
  };

  // Direct order-statistic bracket, always valid.
  double lower = service_order_stat_mean_lower(*model.service, n, k,
                                               config_.mean_grid);
  if (k == n) lower = std::max(lower, model.pk_mean);
  if (model.kind == SojournModel::Kind::kExact && k < n) {
    // integral max(0, 1 - (n/k) F(t)) dt, closed form for Exp(rate):
    // [1 + (1 - n/k) (-ln(1 - k/n))] / rate.
    const double ratio = static_cast<double>(n) / static_cast<double>(k);
    const double f_lower =
        (1.0 + (1.0 - ratio) *
                   (-std::log1p(-static_cast<double>(k) / n))) /
        model.exp_rate;
    lower = std::max(lower, f_lower);
  }
  const double j_eff =
      static_cast<double>(n) / static_cast<double>(n - k + 1);
  double upper = robust_max_mean_upper(model, j_eff);
  if (assoc && k == n) upper = std::min(upper, max_upper(n));

  // Wang linear transformation: E[X_(k:n)] =
  //   sum_{j=k}^{n} (-1)^{j-k} C(j-1, k-1) C(n, j) E[M_j],
  // substituting U_j where the weight is positive and L_j where negative
  // (and vice versa for the transform lower bound).  Skipped when the
  // alternating weights exceed the precision cap.
  if (k < n) {
    double max_log = -kInf;
    for (int j = k; j <= n; ++j) {
      const double lw = stats::log_binomial(j - 1, k - 1) +
                        stats::log_binomial(n, j);
      max_log = std::max(max_log, lw);
    }
    if (max_log <= kTransformLogCap) {
      double t_upper = 0.0, t_lower = 0.0;
      bool ok = true;
      for (int j = k; j <= n; ++j) {
        const double c = std::exp(stats::log_binomial(j - 1, k - 1) +
                                  stats::log_binomial(n, j));
        const double uj = max_upper(j);
        const double lj = max_lower(j);
        if (!std::isfinite(uj)) {
          ok = false;
          break;
        }
        if ((j - k) % 2 == 0) {
          t_upper += c * uj;
          t_lower += c * lj;
        } else {
          t_upper -= c * lj;
          t_lower -= c * uj;
        }
      }
      if (ok) {
        upper = std::min(upper, t_upper);
        lower = std::max(lower, t_lower);
      }
    }
  } else {
    // k == n: the transform degenerates to E[M_n] itself.
    upper = std::min(upper, max_upper(n));
    lower = std::max(lower, max_lower(n));
  }

  lower = std::min(lower, upper);
  return Bracket{lower, upper, true};
}

}  // namespace forktail::baselines
