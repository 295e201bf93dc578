// Special functions required by the generalized exponential moment
// equations (Eqs. 2-3 of the paper): digamma psi(x), trigamma psi'(x), and
// the general polygamma recurrences they are built from.
//
// Implementation: upward recurrence to push the argument above a threshold,
// followed by the standard asymptotic (Bernoulli-number) series.  Accurate
// to ~1e-12 over the ranges the library uses (x > 0).
#pragma once

namespace forktail::stats {

/// Euler-Mascheroni constant; psi(1) = -gamma.
inline constexpr double kEulerGamma = 0.57721566490153286060651209;

/// pi^2/6 = psi'(1).
inline constexpr double kTrigammaAtOne = 1.64493406684822643647241516;

/// Digamma function psi(x) for x > 0.
double digamma(double x);

/// Trigamma function psi'(x) for x > 0.
double trigamma(double x);

/// Tetragamma function psi''(x) for x > 0 (used by sensitivity analysis of
/// the moment fit).
double tetragamma(double x);

/// Mean of the generalized exponential distribution with unit scale:
/// psi(alpha + 1) - psi(1).  (Eq. 2 with beta = 1.)
double ge_unit_mean(double alpha);

/// Variance of the generalized exponential distribution with unit scale:
/// psi'(1) - psi'(alpha + 1).  (Eq. 3 with beta = 1.)
double ge_unit_variance(double alpha);

/// Standard normal CDF.
double normal_cdf(double z);

/// Standard normal pdf.
double normal_pdf(double z);

/// Inverse standard normal CDF (Acklam's rational approximation refined by
/// one Halley step; |error| < 1e-13).  Requires p in (0, 1).
double normal_quantile(double p);

/// Regularized incomplete beta function I_x(a, b) for a, b > 0 and
/// x in [0, 1]: the CDF of the Beta(a, b) distribution, and therefore the
/// CDF of the r-th order statistic of n iid draws evaluated through the
/// parent CDF -- P(X_(r:n) <= t) = I_{F(t)}(r, n - r + 1).  The certified
/// lower bound of the (n, k) fork-join bracket is built on this identity.
/// Lentz continued fraction with the standard symmetry split; accurate to
/// ~1e-12 over the integer-parameter ranges the bounds use.
double regularized_incomplete_beta(double a, double b, double x);

}  // namespace forktail::stats
