#include "stats/spearman.hpp"

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace forktail::stats {

namespace {

constexpr int kDigitBits = 11;
constexpr std::size_t kBuckets = std::size_t{1} << kDigitBits;
constexpr int kPasses = (64 + kDigitBits - 1) / kDigitBits;

/// Unsigned key whose order is the numeric order of `x`: a positive
/// double's bits with the sign bit set, a negative one's bits inverted.
std::uint64_t order_key(double x) {
  if (std::isnan(x)) throw std::invalid_argument("spearman: NaN in sample");
  if (x == 0.0) x = 0.0;  // -0.0 == +0.0, so they must tie
  const auto bits = std::bit_cast<std::uint64_t>(x);
  return (bits >> 63) != 0 ? ~bits : bits | (std::uint64_t{1} << 63);
}

std::size_t digit(std::uint64_t key, int pass) {
  return static_cast<std::size_t>(key >> (pass * kDigitBits)) & (kBuckets - 1);
}

/// Ranks samples by a stable LSD radix sort of their keys.  The buffers
/// are kept across the samples one Spearman call ranks; keys and indices
/// sit in separate arrays, so a pass moves 12 bytes a value.
class Ranker {
 public:
  /// Twice the 0-based mid-ranks of a non-empty `values` (integers, so
  /// exact), in input order.  The view is valid until the next call.
  std::span<const std::uint32_t> twice_ranks(std::span<const double> values) {
    const std::size_t n = values.size();
    if (n > std::size_t{1} << 31) {
      throw std::invalid_argument("spearman: more than 2^31 values");
    }
    keys_.resize(n);
    index_.resize(n);
    keys_tmp_.resize(n);
    index_tmp_.resize(n);
    // One read of the sample fills the keys and every pass's histogram.
    counts_.fill({});
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t key = order_key(values[i]);
      keys_[i] = key;
      index_[i] = static_cast<std::uint32_t>(i);
      for (int p = 0; p < kPasses; ++p) ++counts_[p][digit(key, p)];
    }
    // Least significant digit first; a pass whose digit is the same for
    // every key would be the identity, so it is skipped.
    for (int p = 0; p < kPasses; ++p) {
      auto& count = counts_[p];
      if (count[digit(keys_[0], p)] == n) continue;
      std::uint32_t offset = 0;
      for (std::uint32_t& c : count) {
        const std::uint32_t here = c;
        c = offset;
        offset += here;
      }
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint32_t to = count[digit(keys_[i], p)]++;
        keys_tmp_[to] = keys_[i];
        index_tmp_[to] = index_[i];
      }
      keys_.swap(keys_tmp_);
      index_.swap(index_tmp_);
    }
    // A run of equal keys at sorted positions lo..hi-1 shares the mid-rank
    // (lo + hi - 1) / 2.  index_tmp_ is free now and takes the result.
    for (std::size_t lo = 0; lo < n;) {
      std::size_t hi = lo + 1;
      while (hi < n && keys_[hi] == keys_[lo]) ++hi;
      const auto twice = static_cast<std::uint32_t>(lo + hi - 1);
      for (std::size_t j = lo; j < hi; ++j) index_tmp_[index_[j]] = twice;
      lo = hi;
    }
    return index_tmp_;
  }

 private:
  std::vector<std::uint64_t> keys_, keys_tmp_;
  std::vector<std::uint32_t> index_, index_tmp_;
  std::array<std::array<std::uint32_t, kBuckets>, kPasses> counts_{};
};

}  // namespace

double spearman(std::span<const double> a, std::span<const double> b) {
  if (a.size() != b.size()) {
    throw std::invalid_argument("spearman: samples differ in length");
  }
  const std::size_t n = a.size();
  if (n < 2) throw std::invalid_argument("spearman: needs at least 2 values");
  Ranker ranker;
  const std::span<const std::uint32_t> first = ranker.twice_ranks(a);
  const std::vector<std::uint32_t> ra(first.begin(), first.end());
  const std::span<const std::uint32_t> rb = ranker.twice_ranks(b);
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
