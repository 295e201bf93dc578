// sample_n contract (dist/distribution.hpp): drawing a block must consume
// the RNG stream exactly as the same number of successive sample() calls,
// bit for bit.  The batched replay engine relies on this to stay
// bit-identical to the scalar path, so every concrete distribution's
// devirtualized loop is checked here -- including across block boundaries
// that fall mid-stream.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "dist/basic.hpp"
#include "dist/distribution.hpp"
#include "dist/empirical.hpp"
#include "dist/factory.hpp"
#include "dist/google_leaf.hpp"
#include "dist/heavy.hpp"
#include "util/rng.hpp"

namespace forktail::dist {
namespace {

// Exact (bitwise) comparison: EXPECT_EQ on doubles would conflate 0.0 with
// -0.0; comparing the bit patterns asserts the streams are the same stream.
void expect_bitwise_equal(const std::vector<double>& a,
                          const std::vector<double>& b, const char* name) {
  ASSERT_EQ(a.size(), b.size()) << name;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(a[i]),
              std::bit_cast<std::uint64_t>(b[i]))
        << name << " diverges at draw " << i;
  }
}

void check_sample_n(const Distribution& d, const char* name) {
  constexpr std::size_t kN = 2000;
  util::Rng scalar_rng(42);
  util::Rng block_rng(42);

  std::vector<double> scalar(kN);
  for (double& x : scalar) x = d.sample(scalar_rng);

  // Uneven block sizes (including 1) so boundaries land mid-stream; the
  // tail call covers a block larger than any earlier one.
  std::vector<double> blocked(kN);
  const std::size_t chunks[] = {1, 2, 3, 5, 125, 256, 1000};
  std::span<double> out(blocked);
  std::size_t off = 0;
  for (const std::size_t c : chunks) {
    d.sample_n(block_rng, out.subspan(off, c));
    off += c;
  }
  d.sample_n(block_rng, out.subspan(off));

  expect_bitwise_equal(scalar, blocked, name);
  // The generators must also END in the same state: equal outputs with a
  // desynchronized stream would break the next consumer.
  EXPECT_EQ(scalar_rng.uniform(), block_rng.uniform()) << name << " state";
}

TEST(SampleN, Exponential) { check_sample_n(Exponential(4.22), "Exponential"); }

TEST(SampleN, Erlang) { check_sample_n(Erlang(3, 2.0), "Erlang"); }

TEST(SampleN, HyperExp2) {
  check_sample_n(HyperExp2(0.6, 1.0, 0.125), "HyperExp2");
}

TEST(SampleN, Deterministic) {
  check_sample_n(Deterministic(3.5), "Deterministic");
}

TEST(SampleN, UniformReal) {
  check_sample_n(UniformReal(1.0, 5.0), "UniformReal");
}

TEST(SampleN, Weibull) {
  check_sample_n(Weibull::from_mean_cv(4.22, 1.5), "Weibull");
}

TEST(SampleN, TruncatedPareto) {
  check_sample_n(TruncatedPareto(2.0119, 2.14, 276.6), "TruncPareto");
}

TEST(SampleN, LogNormal) {
  // Box-Muller caches one normal inside the Rng, so odd/even block
  // boundaries exercise the carried-cache case.
  check_sample_n(LogNormal::from_mean_cv(4.22, 1.2), "LogNormal");
}

TEST(SampleN, TruncatedNormal) {
  // Rejection sampling consumes a data-dependent number of uniforms per
  // draw; the contract must hold regardless.
  check_sample_n(TruncatedNormal(4.0, 8.0, 0.0), "TruncNormal");
}

TEST(SampleN, Empirical) {
  check_sample_n(Empirical({0.0, 0.25, 0.5, 0.9, 1.0},
                           {1.0, 2.0, 2.0, 7.5, 30.0}),
                 "Empirical");
}

TEST(SampleN, GoogleLeaf) { check_sample_n(google_leaf(), "GoogleLeaf"); }

// Every distribution reachable through the factory registry, by name: a new
// roster entry cannot ship without the block/scalar stream pin.
TEST(SampleN, FactoryRoster) {
  const auto names = named_distributions();
  ASSERT_FALSE(names.empty());
  for (const std::string& name : names) {
    SCOPED_TRACE(name);
    check_sample_n(*make_named(name), name.c_str());
  }
}

// A distribution that does NOT override sample_n gets the base-class loop,
// which must satisfy the same contract.
class BaseImplOnly final : public Distribution {
 public:
  double sample(util::Rng& rng) const override {
    const double u = rng.uniform();
    return u * u;  // any deterministic transform of the stream
  }
  double moment(int) const override { return 0.0; }
  double cdf(double) const override { return 0.0; }
  std::string name() const override { return "BaseImplOnly"; }
};

TEST(SampleN, BaseImplementation) {
  check_sample_n(BaseImplOnly(), "BaseImplOnly");
}

TEST(SampleN, EmptySpanIsANoOp) {
  const Exponential d(1.0);
  util::Rng a(7);
  util::Rng b(7);
  d.sample_n(a, std::span<double>{});
  EXPECT_EQ(a.uniform(), b.uniform());
}

}  // namespace
}  // namespace forktail::dist
