#include "queueing/laplace.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "dist/basic.hpp"
#include "queueing/mg1.hpp"
#include "support/mm1.hpp"

namespace forktail::queueing {
namespace {

TEST(LaplaceInverter, InvertsExponentialCdf) {
  // f(t) = 1 - e^{-t} has transform F(s) = 1/(s(s+1)).
  LaplaceInverter inv(40);
  for (double t : {0.1, 0.5, 1.0, 2.0, 5.0}) {
    const double got = inv.invert(
        [](std::complex<double> s) { return 1.0 / (s * (s + 1.0)); }, t);
    // Discretization error of the Euler method is ~e^{-A} = e^{-18.4} ~ 1e-8.
    EXPECT_NEAR(got, 1.0 - std::exp(-t), 5e-8) << "t=" << t;
  }
}

TEST(LaplaceInverter, InvertsRampFunction) {
  // f(t) = t has transform 1/s^2.
  LaplaceInverter inv(40);
  for (double t : {0.5, 1.0, 3.0}) {
    const double got =
        inv.invert([](std::complex<double> s) { return 1.0 / (s * s); }, t);
    EXPECT_NEAR(got, t, 1e-7 * t + 1e-8);
  }
}

TEST(LaplaceInverter, RejectsBadParameters) {
  EXPECT_THROW(LaplaceInverter(5), std::invalid_argument);
  LaplaceInverter inv(40);
  EXPECT_THROW(
      inv.invert([](std::complex<double> s) { return 1.0 / s; }, 0.0),
      std::invalid_argument);
}

TEST(PkResponseLst, AtZeroIsOne) {
  // s -> 0 is a 0/0 limit; evaluate at a small but not cancellation-prone
  // argument (the relative error scales with |s|).
  const dist::Exponential service(1.0);
  const auto v = pk_response_lst({1e-6, 0.0}, 0.8, service);
  EXPECT_NEAR(v.real(), 1.0, 1e-4);
}

TEST(Mg1ResponseCdf, MatchesMm1ClosedForm) {
  // M/M/1 response time is Exp(mu - lambda): exact CDF available.
  const dist::Exponential service(1.0);
  const double lambda = 0.8;
  Mm1 q(lambda, 1.0);
  LaplaceInverter inv(50);
  for (double x : {0.5, 2.0, 5.0, 15.0, 25.0}) {
    const double got = mg1_response_cdf(lambda, service, x, inv);
    const double expected = 1.0 - q.response_ccdf(x);
    EXPECT_NEAR(got, expected, 2e-7) << "x=" << x;
  }
}

TEST(Mg1ResponseCdf, MatchesErlangServiceMoments) {
  // Sanity: numerically integrate the inverted CDF's implied mean and
  // compare against the Takacs mean for Erlang-2 service.
  const dist::Erlang service(2, 1.0);
  const double lambda = 0.7;
  LaplaceInverter inv(50);
  const auto analytic = mg1_response(lambda, service);
  // E[T] = integral of (1 - F(x)) dx, trapezoid on a fine grid.
  double mean = 0.0;
  const double dx = 0.02;
  double prev = 1.0;  // 1 - F(0)
  for (double x = dx; x < 60.0; x += dx) {
    const double cur = 1.0 - mg1_response_cdf(lambda, service, x, inv);
    mean += 0.5 * (prev + cur) * dx;
    prev = cur;
    if (cur < 1e-10) break;
  }
  EXPECT_NEAR(mean, analytic.mean, 0.01 * analytic.mean);
}

TEST(Mg1ResponseCdf, RequiresLst) {
  // A distribution without LST must be rejected.
  const dist::UniformReal service(0.5, 1.5);
  LaplaceInverter inv(40);
  EXPECT_THROW(mg1_response_cdf(0.5, service, 1.0, inv), std::logic_error);
}

TEST(Mg1ResponseCdf, MonotoneNonDecreasing) {
  const auto service = dist::HyperExp2::from_mean_scv(1.0, 2.0);
  LaplaceInverter inv(50);
  double prev = 0.0;
  for (double x = 0.1; x < 250.0; x *= 1.4) {
    const double c = mg1_response_cdf(0.85, service, x, inv);
    EXPECT_GE(c, prev - 1e-9) << "x=" << x;
    prev = c;
  }
  EXPECT_GT(prev, 0.99);
}

}  // namespace
}  // namespace forktail::queueing
