#include "dist/transforms.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "stats/roots.hpp"

namespace forktail::dist {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// 32-point Gauss-Legendre nodes/weights on [-1, 1], computed once by
/// Newton iteration on the Legendre recurrence (no table to transcribe).
struct GaussLegendre32 {
  double node[32];
  double weight[32];

  GaussLegendre32() {
    constexpr int n = 32;
    for (int i = 0; i < (n + 1) / 2; ++i) {
      // Chebyshev-like initial guess.
      double x = std::cos(3.14159265358979323846 * (i + 0.75) / (n + 0.5));
      double pp = 0.0;
      for (int iter = 0; iter < 100; ++iter) {
        double p0 = 1.0, p1 = 0.0;
        for (int j = 0; j < n; ++j) {
          const double p2 = p1;
          p1 = p0;
          p0 = ((2.0 * j + 1.0) * x * p1 - j * p2) / (j + 1.0);
        }
        pp = n * (x * p0 - p1) / (x * x - 1.0);
        const double dx = p0 / pp;
        x -= dx;
        if (std::fabs(dx) < 1e-15) break;
      }
      node[i] = -x;
      node[n - 1 - i] = x;
      weight[i] = 2.0 / ((1.0 - x * x) * pp * pp);
      weight[n - 1 - i] = weight[i];
    }
  }
};

const GaussLegendre32& gl32() {
  static const GaussLegendre32 table;
  return table;
}

}  // namespace

double uniform_segment_mgf(double theta, double a, double b) {
  const double width = b - a;
  const double tw = theta * width;
  if (std::fabs(tw) < 1e-12) {
    return std::exp(theta * 0.5 * (a + b));
  }
  return std::exp(theta * a) * std::expm1(tw) / tw;
}

double integrate_gl32(const std::function<double(double)>& f, double lo,
                      double hi, int panels) {
  const GaussLegendre32& gl = gl32();
  double total = 0.0;
  const double step = (hi - lo) / panels;
  for (int p = 0; p < panels; ++p) {
    const double a = lo + p * step;
    const double mid = a + 0.5 * step;
    const double half = 0.5 * step;
    double acc = 0.0;
    for (int i = 0; i < 32; ++i) {
      acc += gl.weight[i] * f(mid + half * gl.node[i]);
    }
    total += acc * half;
  }
  return total;
}

bool mgf_available(const Distribution& d) {
  return d.capabilities().has_mgf;
}

double mgf(const Distribution& d, double theta) {
  if (!(theta >= 0.0)) {
    throw std::invalid_argument("mgf: theta must be >= 0");
  }
  if (theta == 0.0) return 1.0;
  if (!d.capabilities().has_mgf) {
    throw std::invalid_argument("mgf: no exponential moments for " + d.name() +
                                " (" +
                                tail_class_name(d.capabilities().tail) +
                                " tail; no MGF capability)");
  }
  return d.mgf(theta);
}

double lundberg_root(const Distribution& d, double lambda, double mark_prob) {
  if (!(lambda > 0.0)) {
    throw std::invalid_argument("lundberg_root: lambda must be > 0");
  }
  if (!(mark_prob > 0.0 && mark_prob <= 1.0)) {
    throw std::invalid_argument("lundberg_root: mark_prob must be in (0, 1]");
  }
  if (!d.capabilities().has_mgf) {
    throw std::invalid_argument(
        "lundberg_root: no exponential moments for " + d.name() + " (" +
        tail_class_name(d.capabilities().tail) +
        " tail; no coupling certificate exists)");
  }
  const double drift = mark_prob * lambda * d.moment(1);
  if (!(drift < 1.0)) {
    throw std::invalid_argument(
        "lundberg_root: walk is unstable (mark_prob * lambda * E[S] >= 1)");
  }
  // h(theta) = E[e^{theta (B S - A)}]
  //          = ((1 - q) + q MGF_S(theta)) * lambda / (lambda + theta).
  // h(0) = 1, h'(0) < 0 under stability, and h is convex, so the positive
  // root is unique.  Bracket by doubling, then bisect; the returned lower
  // end satisfies h <= 1, which is all the Lundberg inequality needs.
  const auto h = [&](double theta) {
    const double m = mgf(d, theta);
    if (!std::isfinite(m)) return kInf;
    return ((1.0 - mark_prob) + mark_prob * m) * lambda / (lambda + theta);
  };
  double lo = 0.0;
  double hi = 1.0 / (d.moment(1) + 1.0 / lambda);  // natural rate scale
  for (int i = 0; i < 200 && h(hi) < 1.0; ++i) {
    lo = hi;
    hi *= 2.0;
  }
  if (!(h(hi) >= 1.0)) {
    throw std::invalid_argument("lundberg_root: failed to bracket the root");
  }
  lo = stats::bisect([&](double theta) { return h(theta) < 1.0; }, lo, hi).lo;
  if (!(lo > 0.0)) {
    throw std::invalid_argument(
        "lundberg_root: degenerate root (load too close to 1)");
  }
  return lo;
}

}  // namespace forktail::dist
