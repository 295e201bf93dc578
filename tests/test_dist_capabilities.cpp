// Property tests for the capability model: every family's declared
// Capabilities must agree with what its moments, transforms, and support
// actually deliver.  The finite-moment flags are checked two ways -- against
// the analytic moment() implementation and against a direct numerical
// integration of E[S^k] = k Int x^{k-1} P(S > x) dx -- so a family cannot
// declare one thing and compute another.
#include "dist/distribution.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "dist/basic.hpp"
#include "dist/factory.hpp"
#include "dist/heavy.hpp"
#include "dist/transforms.hpp"

namespace forktail::dist {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

DistPtr roster_member(const std::string& name) {
  // Heavy families get an explicit tail index so the sweep covers a case
  // with some (but not all) moments finite.
  return takes_tail_index(name) ? make_named(name, 4.22, 2.2)
                                : make_named(name);
}

/// k Int_a^b x^{k-1} P(S > x) dx by composite Gauss-Legendre panels.
double tail_moment_segment(const Distribution& d, int k, double a, double b) {
  return integrate_gl32(
      [&](double x) {
        return static_cast<double>(k) * std::pow(x, k - 1) *
               (1.0 - d.cdf(x));
      },
      a, b, 16);
}

TEST(Capabilities, FiniteMomentFlagsMatchAnalyticMoments) {
  for (const std::string& name : named_distributions()) {
    const DistPtr d = roster_member(name);
    const Capabilities caps = d->capabilities();
    for (int k = 1; k <= 3; ++k) {
      EXPECT_EQ(caps.moment_finite(k), std::isfinite(d->moment(k)))
          << name << " k=" << k;
    }
  }
}

TEST(Capabilities, FiniteMomentFlagsMatchNumericalIntegration) {
  // Integrate E[S^k] decade by decade.  A finite flag must reproduce the
  // analytic moment (up to the truncation tail past the 10^6 cutoff --
  // beyond that 1 - cdf(x) hits the double-precision floor and the
  // integrand is cancellation noise); an infinite flag must show
  // non-summable decade increments (a regularly varying integrand
  // k x^{k-1} S(x) with k >= alpha contributes at least as much per decade
  // as the one before).
  for (const std::string& name : named_distributions()) {
    const DistPtr d = roster_member(name);
    const Capabilities caps = d->capabilities();
    for (int k = 1; k <= 3; ++k) {
      std::vector<double> increments;
      double total = 0.0;
      double lo = 0.0;
      for (double hi = 1.0; hi <= 1.0e6; hi *= 10.0) {
        const double seg = tail_moment_segment(*d, k, lo, hi);
        if (hi >= 1.0e3) increments.push_back(seg);
        total += seg;
        lo = hi;
      }
      if (caps.moment_finite(k)) {
        EXPECT_NEAR(total, d->moment(k), 0.10 * d->moment(k))
            << name << " k=" << k;
      } else {
        for (std::size_t i = 1; i < increments.size(); ++i) {
          EXPECT_GE(increments[i], 0.99 * increments[i - 1])
              << name << " k=" << k << " decade " << i;
        }
      }
    }
  }
}

TEST(Capabilities, MemorylessIsExactlyTheExponential) {
  for (const std::string& name : named_distributions()) {
    EXPECT_EQ(roster_member(name)->capabilities().memoryless,
              name == "Exponential")
        << name;
  }
}

TEST(Capabilities, MgfAvailabilityMatchesFlag) {
  for (const std::string& name : named_distributions()) {
    const DistPtr d = roster_member(name);
    const Capabilities caps = d->capabilities();
    EXPECT_EQ(mgf_available(*d), caps.has_mgf) << name;
    if (caps.has_mgf) {
      // Jensen: E[e^{theta S}] >= e^{theta E[S]} > 1 + theta E[S].
      const double theta = 0.01 / d->mean();
      EXPECT_GE(mgf(*d, theta), std::exp(theta * d->mean()) * (1.0 - 1e-9))
          << name;
      EXPECT_NEAR(mgf(*d, 0.0), 1.0, 1e-12) << name;
    } else {
      EXPECT_THROW(mgf(*d, 0.1), std::invalid_argument) << name;
      EXPECT_THROW(d->mgf(0.1), std::logic_error) << name;
    }
  }
}

TEST(Capabilities, ExponentialMgfClosedForm) {
  const DistPtr d = make_named("Exponential", 2.0);  // rate 1/2
  EXPECT_NEAR(mgf(*d, 0.25), 2.0, 1e-12);            // 1/(1 - theta mean)
  EXPECT_TRUE(std::isinf(mgf(*d, 0.5)));             // at the abscissa
  EXPECT_TRUE(std::isinf(mgf(*d, 0.7)));             // beyond it
}

TEST(Capabilities, ErlangMgfClosedForm) {
  const DistPtr d = make_named("Erlang-2", 2.0);  // two phases, rate 1 each
  EXPECT_NEAR(mgf(*d, 0.5), 4.0, 1e-12);         // (1/(1 - 0.5))^2
  EXPECT_TRUE(std::isinf(mgf(*d, 1.0)));
}

TEST(Capabilities, SupportBoundsMatchTheFamily) {
  const auto pareto = Pareto::from_mean_tail(4.22, 2.2);
  const Capabilities pc = pareto.capabilities();
  EXPECT_DOUBLE_EQ(pc.support_lo, pareto.scale());
  EXPECT_FALSE(pc.bounded_support());

  const DistPtr trunc = make_named("TruncPareto");
  const Capabilities tc = trunc->capabilities();
  EXPECT_TRUE(tc.bounded_support());
  EXPECT_GT(tc.support_hi, tc.support_lo);
  EXPECT_NEAR(trunc->cdf(tc.support_hi), 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(trunc->cdf(tc.support_lo), 0.0);

  EXPECT_FALSE(make_named("Exponential")->capabilities().bounded_support());
}

TEST(Capabilities, ParetoProfileTracksAlpha) {
  // finite_moments = ceil(alpha) - 1; tail_scale = scale^alpha.
  const struct {
    double alpha;
    int finite;
  } cases[] = {{1.5, 1}, {2.0, 1}, {2.2, 2}, {3.0, 2}, {3.5, 3}};
  for (const auto& c : cases) {
    const Pareto d(c.alpha, 2.0);
    const Capabilities caps = d.capabilities();
    EXPECT_EQ(caps.tail, TailClass::kRegularlyVarying);
    EXPECT_DOUBLE_EQ(caps.tail_index, c.alpha);
    EXPECT_NEAR(caps.tail_scale, std::pow(2.0, c.alpha), 1e-12);
    EXPECT_EQ(caps.finite_moments, c.finite) << "alpha=" << c.alpha;
    EXPECT_FALSE(caps.has_mgf);
    EXPECT_FALSE(caps.has_lst);
  }
}

TEST(Capabilities, MixtureTailConstantIsWeightedParetoConstant) {
  const auto d = ParetoLogNormalMixture::from_mean_tail(4.22, 2.2, 0.9, 0.8);
  const Capabilities caps = d.capabilities();
  EXPECT_EQ(caps.tail, TailClass::kRegularlyVarying);
  EXPECT_DOUBLE_EQ(caps.tail_index, 2.2);
  EXPECT_NEAR(caps.tail_scale,
              0.1 * std::pow(d.tail().scale(), 2.2), 1e-12);
  EXPECT_EQ(caps.finite_moments, 2);
}

TEST(Capabilities, TailIndexIsInfiniteOffTheRegularlyVaryingFamilies) {
  for (const std::string& name : named_distributions()) {
    const DistPtr d = roster_member(name);
    const Capabilities caps = d->capabilities();
    if (caps.tail != TailClass::kRegularlyVarying) {
      EXPECT_TRUE(std::isinf(caps.tail_index)) << name;
      EXPECT_FALSE(takes_tail_index(name)) << name;
    } else {
      EXPECT_TRUE(takes_tail_index(name)) << name;
      EXPECT_GT(caps.tail_index, 1.0) << name;
      EXPECT_GT(caps.tail_scale, 0.0) << name;
    }
  }
}

TEST(Capabilities, FactoryRejectsTailIndexOnLightFamilies) {
  EXPECT_THROW(make_named("Exponential", 4.22, 2.2), std::invalid_argument);
  EXPECT_THROW(make_named("Weibull", 4.22, 2.2), std::invalid_argument);
  EXPECT_NO_THROW(make_named("Pareto", 4.22, 2.2));
  EXPECT_NO_THROW(make_named("HeavyMixture", 4.22, 2.2));
}

// A deliberately inconsistent test double: moment(2) < moment(1)^2, the
// shape produced by catastrophic cancellation on near-deterministic
// empirical tables.  The old cv() clamped this to 0 (masquerading as a
// Deterministic); the fix surfaces it as NaN.
class NegativeVarianceDouble final : public Distribution {
 public:
  double sample(util::Rng&) const override { return 1.0; }
  double moment(int k) const override { return k == 1 ? 1.0 : 0.9999; }
  double cdf(double x) const override { return x >= 1.0 ? 1.0 : 0.0; }
  std::string name() const override { return "NegativeVarianceDouble"; }
};

TEST(Capabilities, CvSurfacesDegenerateVarianceAsNan) {
  const NegativeVarianceDouble bad;
  EXPECT_LT(bad.scv(), 0.0);
  EXPECT_TRUE(std::isnan(bad.cv()));
  // A true point mass is still exactly zero, not NaN.
  const Deterministic point(4.22);
  EXPECT_DOUBLE_EQ(point.scv(), 0.0);
  EXPECT_DOUBLE_EQ(point.cv(), 0.0);
}

TEST(Capabilities, FromMeanCvRejectsDegenerateInputsUniformly) {
  const double inf = kInf;
  for (double cv : {0.0, -1.0, inf}) {
    EXPECT_THROW(Weibull::from_mean_cv(4.22, cv), std::invalid_argument);
    EXPECT_THROW(LogNormal::from_mean_cv(4.22, cv), std::invalid_argument);
    EXPECT_THROW(TruncatedPareto::from_mean_cv_upper(4.22, cv, 276.6),
                 std::invalid_argument);
  }
  for (double mean : {0.0, -4.22, inf}) {
    EXPECT_THROW(Weibull::from_mean_cv(mean, 1.2), std::invalid_argument);
    EXPECT_THROW(LogNormal::from_mean_cv(mean, 1.2), std::invalid_argument);
    EXPECT_THROW(TruncatedPareto::from_mean_cv_upper(mean, 1.2, 276.6),
                 std::invalid_argument);
  }
}

TEST(Capabilities, DefaultClaimIsConservative) {
  const Capabilities caps;
  EXPECT_EQ(caps.tail, TailClass::kSubexponential);
  EXPECT_TRUE(std::isinf(caps.tail_index));
  EXPECT_TRUE(caps.moment_finite(3));
  EXPECT_FALSE(caps.has_mgf);
  EXPECT_FALSE(caps.has_lst);
  EXPECT_FALSE(caps.memoryless);
  EXPECT_FALSE(caps.bounded_support());
}

TEST(Capabilities, TailClassNames) {
  EXPECT_STREQ(tail_class_name(TailClass::kLight), "light");
  EXPECT_STREQ(tail_class_name(TailClass::kSubexponential),
               "subexponential");
  EXPECT_STREQ(tail_class_name(TailClass::kRegularlyVarying),
               "regularly-varying");
}

}  // namespace
}  // namespace forktail::dist
