// Stable LSD radix argsort of doubles in O(n).
//
// Values are sorted by order-preserving 64-bit keys (the IEEE bits with the
// sign handled, so unsigned key order is the numeric order) in 11-bit
// digits, least significant first; a pass whose digit is the same for
// every key is skipped.  Stability makes the permutation unique: ties keep
// their input order.  Spearman's mid-ranks and the vector pipeline's stage
// reorder both sort with it.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace forktail::stats {

/// Unsigned key whose order is the numeric order of `x`: a positive
/// double's bits with the sign bit set, a negative one's bits inverted
/// (-0.0 keys as +0.0, so they tie).  Throws std::invalid_argument on NaN.
std::uint64_t order_key(double x);

/// Sorter whose buffers are kept from one sort to the next; keys and
/// indices sit in separate arrays, so a pass moves 12 bytes a value.
class RadixArgsort {
 public:
  /// Sort `values` ascending.  Throws std::invalid_argument on a NaN or
  /// more than 2^31 values.
  void sort(std::span<const double> values);
  /// The input index at each sorted position; valid until the next sort.
  std::span<const std::uint32_t> order() const { return index_; }
  /// The order_key at each sorted position: equal keys are equal values.
  std::span<const std::uint64_t> keys() const { return keys_; }

 private:
  static constexpr int kDigitBits = 11;
  static constexpr std::size_t kBuckets = std::size_t{1} << kDigitBits;
  static constexpr int kPasses = (64 + kDigitBits - 1) / kDigitBits;

  std::vector<std::uint64_t> keys_, keys_tmp_;
  std::vector<std::uint32_t> index_, index_tmp_;
  std::array<std::array<std::uint32_t, kBuckets>, kPasses> counts_{};
};

}  // namespace forktail::stats
