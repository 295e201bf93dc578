#include "stats/special_functions.hpp"

#include <cmath>
#include <stdexcept>

#include "util/vec_math.hpp"

namespace forktail::stats {

namespace {
// Arguments are pushed above this threshold before applying the asymptotic
// series; 10 keeps the truncation error below 1e-14 with the terms used.
constexpr double kAsymptoticThreshold = 10.0;

void check_positive(double x, const char* fn) {
  if (!(x > 0.0)) {
    throw std::domain_error(std::string(fn) + " requires x > 0");
  }
}
}  // namespace

double digamma(double x) {
  check_positive(x, "digamma");
  double result = 0.0;
  while (x < kAsymptoticThreshold) {
    result -= 1.0 / x;  // psi(x) = psi(x+1) - 1/x
    x += 1.0;
  }
  // psi(x) ~ ln x - 1/(2x) - sum B_{2n}/(2n x^{2n})
  const double inv = 1.0 / x;
  const double inv2 = inv * inv;
  result += std::log(x) - 0.5 * inv;
  result -= inv2 * (1.0 / 12.0 -
                    inv2 * (1.0 / 120.0 -
                            inv2 * (1.0 / 252.0 -
                                    inv2 * (1.0 / 240.0 - inv2 * (1.0 / 132.0)))));
  return result;
}

double trigamma(double x) {
  check_positive(x, "trigamma");
  double result = 0.0;
  while (x < kAsymptoticThreshold) {
    result += 1.0 / (x * x);  // psi'(x) = psi'(x+1) + 1/x^2
    x += 1.0;
  }
  // psi'(x) ~ 1/x + 1/(2x^2) + sum B_{2n}/x^{2n+1}
  const double inv = 1.0 / x;
  const double inv2 = inv * inv;
  result += inv + 0.5 * inv2;
  result += inv * inv2 *
            (1.0 / 6.0 -
             inv2 * (1.0 / 30.0 -
                     inv2 * (1.0 / 42.0 - inv2 * (1.0 / 30.0 - inv2 * (5.0 / 66.0)))));
  return result;
}

double tetragamma(double x) {
  check_positive(x, "tetragamma");
  double result = 0.0;
  while (x < kAsymptoticThreshold) {
    result -= 2.0 / (x * x * x);  // psi''(x) = psi''(x+1) - 2/x^3
    x += 1.0;
  }
  // psi''(x) ~ -1/x^2 - 1/x^3 - 1/(2x^4) + 1/(6x^6) - 1/(6x^8) + 3/(10x^10)
  const double inv = 1.0 / x;
  const double inv2 = inv * inv;
  result += -inv2 - inv * inv2 - 0.5 * inv2 * inv2;
  result += inv2 * inv2 * inv2 * (1.0 / 6.0 - inv2 * (1.0 / 6.0 - inv2 * (3.0 / 10.0)));
  return result;
}

namespace {
constexpr double kNormSqrt2 = 1.41421356237309504880;
constexpr double kNormInvSqrt2Pi = 0.39894228040143267794;
}  // namespace

double normal_cdf(double z) { return 0.5 * std::erfc(-z / kNormSqrt2); }

double normal_pdf(double z) { return kNormInvSqrt2Pi * std::exp(-0.5 * z * z); }

double normal_quantile(double p) {
  if (!(p > 0.0 && p < 1.0)) {
    throw std::invalid_argument("normal_quantile: p must be in (0,1)");
  }
  // Acklam's algorithm: the central rational is shared with the vector
  // samplers (util/vec_math.hpp); the tails use the rational in
  // q = sqrt(-2 log p).
  static const double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                             -2.400758277161838e+00, -2.549732539343734e+00,
                             4.374664141464968e+00,  2.938163982698783e+00};
  static const double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                             2.445134137142996e+00, 3.754408661907416e+00};
  const double plow = util::kNormalCentralLow;
  double x;
  if (p < plow) {
    const double q = std::sqrt(-2.0 * std::log(p));
    x = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  } else if (p <= 1.0 - plow) {
    x = util::normal_quantile_central(p);
  } else {
    const double q = std::sqrt(-2.0 * std::log(1.0 - p));
    x = -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  // One Halley refinement.
  const double e = normal_cdf(x) - p;
  const double u = e / normal_pdf(x);
  x -= u / (1.0 + 0.5 * x * u);
  return x;
}

namespace {

/// Continued fraction for the incomplete beta (Lentz's method), valid and
/// fast for x < (a + 1) / (a + b + 2).
double beta_continued_fraction(double a, double b, double x) {
  constexpr int kMaxIter = 300;
  constexpr double kTiny = 1e-300;
  constexpr double kEps = 1e-15;
  const double qab = a + b;
  const double qap = a + 1.0;
  const double qam = a - 1.0;
  double c = 1.0;
  double d = 1.0 - qab * x / qap;
  if (std::fabs(d) < kTiny) d = kTiny;
  d = 1.0 / d;
  double h = d;
  for (int m = 1; m <= kMaxIter; ++m) {
    const double m2 = 2.0 * m;
    // Even step.
    double aa = m * (b - m) * x / ((qam + m2) * (a + m2));
    d = 1.0 + aa * d;
    if (std::fabs(d) < kTiny) d = kTiny;
    c = 1.0 + aa / c;
    if (std::fabs(c) < kTiny) c = kTiny;
    d = 1.0 / d;
    h *= d * c;
    // Odd step.
    aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
    d = 1.0 + aa * d;
    if (std::fabs(d) < kTiny) d = kTiny;
    c = 1.0 + aa / c;
    if (std::fabs(c) < kTiny) c = kTiny;
    d = 1.0 / d;
    const double del = d * c;
    h *= del;
    if (std::fabs(del - 1.0) < kEps) break;
  }
  return h;
}

}  // namespace

double regularized_incomplete_beta(double a, double b, double x) {
  if (!(a > 0.0) || !(b > 0.0)) {
    throw std::domain_error("regularized_incomplete_beta requires a, b > 0");
  }
  if (!(x >= 0.0 && x <= 1.0)) {
    throw std::domain_error("regularized_incomplete_beta requires x in [0, 1]");
  }
  if (x == 0.0) return 0.0;
  if (x == 1.0) return 1.0;
  const double log_front = std::lgamma(a + b) - std::lgamma(a) - std::lgamma(b) +
                           a * std::log(x) + b * std::log1p(-x);
  const double front = std::exp(log_front);
  // Use the fraction on the side where it converges fast; the other side
  // follows from I_x(a, b) = 1 - I_{1-x}(b, a).
  if (x < (a + 1.0) / (a + b + 2.0)) {
    return front * beta_continued_fraction(a, b, x) / a;
  }
  return 1.0 - front * beta_continued_fraction(b, a, 1.0 - x) / b;
}

double ge_unit_mean(double alpha) {
  return digamma(alpha + 1.0) + kEulerGamma;  // psi(1) = -gamma
}

double ge_unit_variance(double alpha) {
  return kTrigammaAtOne - trigamma(alpha + 1.0);
}

}  // namespace forktail::stats
