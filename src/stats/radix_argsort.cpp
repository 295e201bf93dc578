#include "stats/radix_argsort.hpp"

#include <bit>
#include <cmath>
#include <stdexcept>

namespace forktail::stats {

std::uint64_t order_key(double x) {
  if (std::isnan(x)) throw std::invalid_argument("order_key: NaN value");
  if (x == 0.0) x = 0.0;  // -0.0 == +0.0, so they must tie
  const auto bits = std::bit_cast<std::uint64_t>(x);
  return (bits >> 63) != 0 ? ~bits : bits | (std::uint64_t{1} << 63);
}

void RadixArgsort::sort(std::span<const double> values) {
  const std::size_t n = values.size();
  if (n > std::size_t{1} << 31) {
    throw std::invalid_argument("RadixArgsort: more than 2^31 values");
  }
  const auto digit = [](std::uint64_t key, int pass) {
    return static_cast<std::size_t>(key >> (pass * kDigitBits)) &
           (kBuckets - 1);
  };
  keys_.resize(n);
  index_.resize(n);
  keys_tmp_.resize(n);
  index_tmp_.resize(n);
  // One read of the values fills the keys and every pass's histogram.
  counts_.fill({});
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t key = order_key(values[i]);
    keys_[i] = key;
    index_[i] = static_cast<std::uint32_t>(i);
    for (int p = 0; p < kPasses; ++p) ++counts_[p][digit(key, p)];
  }
  for (int p = 0; p < kPasses && n > 0; ++p) {
    auto& count = counts_[p];
    // Every key shares this digit: the pass would be the identity.
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
}

}  // namespace forktail::stats
