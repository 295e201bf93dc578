#include "stats/percentile.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace forktail::stats {

namespace {
double interpolate_sorted(std::span<const double> sorted, double p) {
  const std::size_t n = sorted.size();
  if (n == 1) return sorted[0];
  const double h = (p / 100.0) * static_cast<double>(n - 1);
  const auto lo = static_cast<std::size_t>(h);
  if (lo + 1 >= n) return sorted[n - 1];
  const double frac = h - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[lo + 1] - sorted[lo]);
}

void check_args(std::size_t n, double p) {
  if (n == 0) throw std::invalid_argument("percentile of empty sample");
  // Written so that a NaN `p` fails the check too.
  if (!(p >= 0.0 && p <= 100.0)) {
    throw std::invalid_argument("p must be in [0,100]");
  }
}

// A NaN breaks the strict weak ordering sort/nth_element require, so a
// poisoned sample silently yields garbage order statistics.  One O(n) scan
// turns that into a loud error.
void check_no_nan(std::span<const double> samples) {
  for (double x : samples) {
    if (std::isnan(x)) {
      throw std::invalid_argument("percentile: NaN in sample");
    }
  }
}
}  // namespace

double percentile(std::span<const double> samples, double p) {
  check_args(samples.size(), p);
  check_no_nan(samples);
  std::vector<double> sorted(samples.begin(), samples.end());
  std::sort(sorted.begin(), sorted.end());
  return interpolate_sorted(sorted, p);
}

std::vector<double> percentiles(std::span<const double> samples,
                                std::span<const double> ps) {
  // Validate the whole request -- including rejecting an empty `ps` --
  // before paying for the O(n log n) sort.
  if (ps.empty()) throw std::invalid_argument("percentiles: empty p list");
  for (double p : ps) check_args(samples.size(), p);
  check_no_nan(samples);
  std::vector<double> sorted(samples.begin(), samples.end());
  std::sort(sorted.begin(), sorted.end());
  std::vector<double> out;
  out.reserve(ps.size());
  for (double p : ps) out.push_back(interpolate_sorted(sorted, p));
  return out;
}

double percentile_inplace(std::span<double> samples, double p) {
  // Delegates to the multi-p selection path; even a single percentile needs
  // the second (degenerate) nth_element to locate the interpolation
  // neighbor -- the minimum of the upper partition [lo+1, n) -- which costs
  // one extra O(n - lo) scan on top of the O(n) expected selection.
  return percentiles_inplace(samples, std::span<const double>(&p, 1))[0];
}

std::vector<double> percentiles_inplace(std::span<double> samples,
                                        std::span<const double> ps) {
  if (ps.empty()) throw std::invalid_argument("percentiles: empty p list");
  const std::size_t n = samples.size();
  for (double p : ps) check_args(n, p);
  check_no_nan(samples);

  // Process the requested percentiles in ascending order: once the order
  // statistic at `lo` is placed, everything left of it is <= samples[lo],
  // so the next (larger) selection only has to touch the suffix [left, n).
  std::vector<std::size_t> idx(ps.size());
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  std::sort(idx.begin(), idx.end(),
            [&](std::size_t a, std::size_t b) { return ps[a] < ps[b]; });

  std::vector<double> out(ps.size());
  const auto begin = samples.begin();
  std::size_t left = 0;
  std::size_t cached_lo = n;  // no order statistic placed yet
  double vlo = 0.0;
  double vhi = 0.0;
  for (std::size_t i : idx) {
    if (n == 1) {
      out[i] = samples[0];
      continue;
    }
    const double h = (ps[i] / 100.0) * static_cast<double>(n - 1);
    const auto lo = static_cast<std::size_t>(h);
    if (lo != cached_lo) {
      std::nth_element(begin + static_cast<std::ptrdiff_t>(left),
                       begin + static_cast<std::ptrdiff_t>(lo), samples.end());
      vlo = samples[lo];
      if (lo + 1 < n) {
        // Interpolation neighbor: the MINIMUM of the upper partition.  A
        // degenerate nth_element places it at lo+1 and leaves the suffix
        // partitioned for the next percentile.
        std::nth_element(begin + static_cast<std::ptrdiff_t>(lo) + 1,
                         begin + static_cast<std::ptrdiff_t>(lo) + 1,
                         samples.end());
        vhi = samples[lo + 1];
        left = lo + 1;
      } else {
        left = lo;
      }
      cached_lo = lo;
    }
    if (lo + 1 >= n) {
      out[i] = samples[n - 1];
      continue;
    }
    const double frac = h - static_cast<double>(lo);
    out[i] = vlo + frac * (vhi - vlo);
  }
  return out;
}

}  // namespace forktail::stats
