// Spearman's rho by indirect comparison sort: the test oracle that
// stats::spearman's radix mid-rank version is checked against.  Tied
// values get distinct ranks in std::sort's unspecified order, so the two
// agree bit for bit only on samples without exact ties.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <numeric>
#include <span>
#include <vector>

namespace forktail::test_support {

inline double sort_spearman(std::span<const double> a,
                            std::span<const double> b) {
  const std::size_t n = a.size();
  auto ranks = [n](std::span<const double> v) {
    std::vector<std::size_t> idx(n);
    std::iota(idx.begin(), idx.end(), std::size_t{0});
    std::sort(idx.begin(), idx.end(),
              [&](std::size_t x, std::size_t y) { return v[x] < v[y]; });
    std::vector<double> r(n);
    for (std::size_t i = 0; i < n; ++i) {
      r[idx[i]] = static_cast<double>(i);
    }
    return r;
  };
  const auto ra = ranks(a);
  const auto rb = ranks(b);
  const double mean = (static_cast<double>(n) - 1.0) / 2.0;
  double num = 0.0;
  double da = 0.0;
  double db = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double x = ra[i] - mean;
    const double y = rb[i] - mean;
    num += x * y;
    da += x * x;
    db += y * y;
  }
  return num / std::sqrt(da * db);
}

/// True when some value occurs more than once in `v` (-0.0 ties +0.0).
inline bool has_exact_tie(std::span<const double> v) {
  std::vector<double> s(v.begin(), v.end());
  std::sort(s.begin(), s.end());
  return std::adjacent_find(s.begin(), s.end()) != s.end();
}

}  // namespace forktail::test_support
