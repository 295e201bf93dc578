// Long-double two-pass mean and population variance: the oracle that the
// block and streaming moment updates are checked against.
#pragma once

#include <cmath>
#include <span>

namespace forktail::test_support {

struct TwoPassMoments {
  long double mean = 0.0L;
  long double variance = 0.0L;
};

inline TwoPassMoments two_pass(std::span<const double> xs) {
  TwoPassMoments out;
  if (xs.empty()) return out;
  const auto n = static_cast<long double>(xs.size());
  for (const double x : xs) out.mean += x;
  out.mean /= n;
  for (const double x : xs) {
    const long double d = x - out.mean;
    out.variance += d * d;
  }
  out.variance /= n;
  return out;
}

/// |got - want| / |want|, or |got - want| when `want` is zero.
inline double relative_gap(double got, long double want) {
  const long double gap = std::fabs(static_cast<long double>(got) - want);
  return static_cast<double>(want != 0.0L ? gap / std::fabs(want) : gap);
}

}  // namespace forktail::test_support
