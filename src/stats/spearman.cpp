#include "stats/spearman.hpp"

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "stats/radix_argsort.hpp"

namespace forktail::stats {

namespace {

/// Twice the 0-based mid-ranks of a non-empty `values` (integers, so
/// exact), in input order.  A run of equal keys at sorted positions
/// lo..hi-1 shares the mid-rank (lo + hi - 1) / 2.
std::vector<std::uint32_t> twice_ranks(RadixArgsort& sorter,
                                       std::span<const double> values) {
  sorter.sort(values);
  const std::span<const std::uint64_t> keys = sorter.keys();
  const std::span<const std::uint32_t> order = sorter.order();
  const std::size_t n = values.size();
  std::vector<std::uint32_t> ranks(n);
  for (std::size_t lo = 0; lo < n;) {
    std::size_t hi = lo + 1;
    while (hi < n && keys[hi] == keys[lo]) ++hi;
    const auto twice = static_cast<std::uint32_t>(lo + hi - 1);
    for (std::size_t j = lo; j < hi; ++j) ranks[order[j]] = twice;
    lo = hi;
  }
  return ranks;
}

}  // namespace

double spearman(std::span<const double> a, std::span<const double> b) {
  if (a.size() != b.size()) {
    throw std::invalid_argument("spearman: samples differ in length");
  }
  const std::size_t n = a.size();
  if (n < 2) throw std::invalid_argument("spearman: needs at least 2 values");
  RadixArgsort sorter;
  const std::vector<std::uint32_t> ra = twice_ranks(sorter, a);
  const std::vector<std::uint32_t> rb = twice_ranks(sorter, b);
  // Mid-ranks keep the mean rank at (n - 1) / 2.  Halving a twice-rank is
  // exact, so each deviation is the one a double rank would give.
  const double mean = (static_cast<double>(n) - 1.0) / 2.0;
  double num = 0.0;
  double da = 0.0;
  double db = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double x = 0.5 * static_cast<double>(ra[i]) - mean;
    const double y = 0.5 * static_cast<double>(rb[i]) - mean;
    num += x * y;
    da += x * x;
    db += y * y;
  }
  // Zero rank variance means every value tied.
  if (da == 0.0 || db == 0.0) return da == db ? 1.0 : 0.0;
  return num / std::sqrt(da * db);
}

}  // namespace forktail::stats
