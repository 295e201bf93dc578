// Raw-moment accumulator up to the 4th moment: the test oracle that
// distribution tests check analytic E[X^k] against.  Naive power sums are
// fine for that (bounded sample sizes, moments compared at percent-level
// tolerances); production code pools moments through stats::MomentSketch.
#pragma once

#include <cstdint>
#include <stdexcept>

namespace forktail::test_support {

class RawMoments {
 public:
  void add(double x) noexcept {
    ++n_;
    double p = x;
    for (int k = 0; k < 4; ++k) {
      sums_[k] += p;
      p *= x;
    }
  }

  std::uint64_t count() const noexcept { return n_; }

  /// E[X^k] for k in 1..4.
  double moment(int k) const {
    if (k < 1 || k > 4) throw std::out_of_range("moment order must be 1..4");
    return n_ > 0 ? sums_[k - 1] / static_cast<double>(n_) : 0.0;
  }

  double mean() const { return moment(1); }
  double variance() const {
    const double m = mean();
    return moment(2) - m * m;
  }

 private:
  std::uint64_t n_ = 0;
  double sums_[4] = {0, 0, 0, 0};
};

}  // namespace forktail::test_support
