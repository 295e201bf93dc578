// Batched inverse-CDF sampling for the vector replay engine: 8 SIMD lanes,
// one service-time stream per lane, filled in staged block passes that GCC
// auto-vectorizes at whatever -march the including translation unit uses.
//
// Stream contract: lane `l` owns the xoshiro256++ stream seeded with the
// exact `util::Rng::split_seed` value the legacy scalar engine would use
// for the same node, so the *raw u64 streams* are identical between the two
// engines.  What differs is the transform applied to the stream:
//
//   * kUniform / kDeterministic / kEmpirical / kGeneric lanes reproduce the
//     scalar `sample()` values bit for bit (same arithmetic, same draw
//     count per sample).
//   * kExponential / kErlang / kHyperExp2 / kWeibull / kTruncPareto use the
//     polynomial log/exp kernels in util/vec_math.hpp instead of libm
//     (last-ulp differences), and replace `uniform_pos()`'s rejection loop
//     with a branch-free clamp at 2^-53.
//   * kLogNormal switches from Box-Muller (scalar) to the inverse-CDF
//     (Acklam central polynomial, |err| ~1e-9 quantile units; tails
//     delegate to stats::normal_quantile, |err| < 1e-13).
//   * kErlang consumes its per-sample stage draws stage-major within a
//     block (stage 0 for every row, then stage 1, ...) instead of
//     sample-major.
//
// Every deviation is a documented golden change (docs/performance.md); the
// statistical-equivalence tests in tests/test_replay_vector.cpp pin the
// resulting distributions against the scalar engines.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "dist/distribution.hpp"
#include "util/rng.hpp"
#include "util/vec_math.hpp"
#include "util/vec_rng.hpp"

namespace forktail::dist {

class Empirical;

enum class VecKind : std::uint8_t {
  kDeterministic,
  kUniform,
  kExponential,
  kErlang,
  kHyperExp2,
  kWeibull,
  kTruncPareto,
  kPareto,  // untruncated: the kTruncPareto kernel with trunc_mass = 1
  kLogNormal,
  kEmpirical,
  kGeneric,  // per-lane scalar Rng + virtual sample_n (TruncNormal, mixture)
};

/// Vector classification of a distribution.  Erlang lanes can only share a
/// fill pass when their stage counts match, so the stage count is part of
/// the grouping key.
struct VecClass {
  VecKind kind;
  int stages;  // Erlang stage count; 0 otherwise

  friend bool operator==(const VecClass&, const VecClass&) = default;
};

VecClass classify_vec(const Distribution& d);

/// O(1)-expected quantile lookup over an Empirical's knots: a bucket table
/// maps u to a starting knot, then a short forward scan lands on the same
/// segment `Empirical::quantile`'s upper_bound would find.  The
/// interpolation arithmetic is copied verbatim so results are bit-identical
/// to the scalar path.
class EmpiricalGrid {
 public:
  explicit EmpiricalGrid(const Empirical& e);

  FORKTAIL_VEC_INLINE double quantile(double u) const noexcept {
    if (u <= 0.0) return values_.front();
    const auto b = static_cast<std::size_t>(u * static_cast<double>(buckets_));
    std::size_t lo = start_[b < buckets_ ? b : buckets_ - 1];
    while (probs_[lo + 1] <= u) ++lo;
    const std::size_t hi = lo + 1;
    const double frac = (u - probs_[lo]) / (probs_[hi] - probs_[lo]);
    return values_[lo] + frac * (values_[hi] - values_[lo]);
  }

 private:
  std::vector<double> probs_;
  std::vector<double> values_;
  std::vector<std::uint32_t> start_;
  std::size_t buckets_;
};

/// 8 lanes of batched sampling over one distribution kind.  Lanes may carry
/// different parameters (heterogeneous nodes) but must share the same
/// VecClass.  Lanes at index >= active() produce demand 0.0 and consume no
/// stream.
class LaneSampler {
 public:
  struct Lane {
    const Distribution* dist;
    std::uint64_t seed;  // util::Rng stream seed for this lane
  };

  /// `lanes.size()` in 1..kVecLanes.
  explicit LaneSampler(std::span<const Lane> lanes);

  VecClass vec_class() const noexcept { return cls_; }
  std::size_t active() const noexcept { return active_; }

  /// Restart lane `l`'s stream at `seed`, exactly as if the sampler had
  /// been built with that lane seed.  Far cheaper than a rebuild (no
  /// classification, no Empirical grid), for callers that run many short
  /// streams over one distribution.
  void reseed(std::size_t l, std::uint64_t seed) {
    xo_.seed_lane(l, seed);
    if (cls_.kind == VecKind::kGeneric && l < active_) {
      rngs_[l] = util::Rng(seed);
    }
  }

  /// Append `rows` samples per lane into `out` (row-major [rows][8]:
  /// out[i*8 + l] is lane l's i-th sample of this call).  Lanes advance in
  /// lockstep; successive calls continue the streams.
  FORKTAIL_VEC_INLINE void fill(double* out, std::size_t rows) {
    if (rows == 0) return;
    const std::size_t n = rows * util::kVecLanes;
    switch (cls_.kind) {
      case VecKind::kDeterministic:
        fill_deterministic(out, rows);
        break;
      case VecKind::kUniform:
        fill_uniform(out, rows, n);
        break;
      case VecKind::kExponential:
        fill_exponential(out, rows, n);
        break;
      case VecKind::kErlang:
        fill_erlang(out, rows, n);
        break;
      case VecKind::kHyperExp2:
        fill_hyperexp2(out, rows, n);
        break;
      case VecKind::kWeibull:
        fill_weibull(out, rows, n);
        break;
      case VecKind::kTruncPareto:
      case VecKind::kPareto:
        fill_truncpareto(out, rows, n);
        break;
      case VecKind::kLogNormal:
        fill_lognormal(out, rows, n);
        break;
      case VecKind::kEmpirical:
        fill_empirical(out, rows, n);
        break;
      case VecKind::kGeneric:
        fill_generic(out, rows);
        break;
    }
    if (active_ < util::kVecLanes && cls_.kind != VecKind::kGeneric) {
      for (std::size_t i = 0; i < rows; ++i) {
        for (std::size_t l = active_; l < util::kVecLanes; ++l) {
          out[i * util::kVecLanes + l] = 0.0;
        }
      }
    }
  }

 private:
  static constexpr std::size_t kL = util::kVecLanes;

  FORKTAIL_VEC_INLINE void reserve(std::size_t n, std::size_t raw_n) {
    if (raw_.size() < raw_n) raw_.resize(raw_n);
    if (tmp_.size() < n) tmp_.resize(n);
  }

  FORKTAIL_VEC_INLINE void fill_deterministic(double* __restrict out, std::size_t rows) {
    for (std::size_t i = 0; i < rows; ++i) {
      for (std::size_t l = 0; l < kL; ++l) out[i * kL + l] = p0_[l];
    }
  }

  FORKTAIL_VEC_INLINE void fill_uniform(double* __restrict out, std::size_t rows, std::size_t n) {
    reserve(0, n);
    xo_.fill(raw_.data(), rows);
    // lo + range*u: identical arithmetic to Rng::uniform(lo, hi).
    for (std::size_t i = 0; i < rows; ++i) {
      for (std::size_t l = 0; l < kL; ++l) {
        const std::size_t q = i * kL + l;
        out[q] = p0_[l] + p1_[l] * util::bits_to_unit(raw_[q]);
      }
    }
  }

  FORKTAIL_VEC_INLINE void fill_exponential(double* __restrict out, std::size_t rows,
                        std::size_t n) {
    reserve(0, n);
    xo_.fill(raw_.data(), rows);
    util::unit_pos_block(raw_.data(), out, n);
    util::log_block_inplace(out, n);
    for (std::size_t i = 0; i < rows; ++i) {
      for (std::size_t l = 0; l < kL; ++l) out[i * kL + l] *= p0_[l];  // -mean
    }
  }

  FORKTAIL_VEC_INLINE void fill_erlang(double* __restrict out, std::size_t rows, std::size_t n) {
    reserve(0, n);
    xo_.fill(raw_.data(), rows);
    util::unit_pos_block(raw_.data(), out, n);
    for (int s = 1; s < cls_.stages; ++s) {
      xo_.fill(raw_.data(), rows);
      // Fused convert-clamp-multiply (no staging buffer round trip); the
      // arithmetic is exactly unit_pos_block's.
      const std::uint64_t* __restrict raw = raw_.data();
      for (std::size_t q = 0; q < n; ++q) {
        const double u = util::bits_to_unit(raw[q]);
        out[q] *= u < 0x1.0p-53 ? 0x1.0p-53 : u;
      }
    }
    util::log_block_inplace(out, n);
    for (std::size_t i = 0; i < rows; ++i) {
      for (std::size_t l = 0; l < kL; ++l) {
        out[i * kL + l] *= p0_[l];  // -1/stage_rate
      }
    }
  }

  FORKTAIL_VEC_INLINE void fill_hyperexp2(double* __restrict out, std::size_t rows,
                      std::size_t n) {
    // Two draws per sample, consumed (branch, exp) per row to match the
    // scalar per-lane draw order: raw rows alternate u1, u2.  Parameters
    // and buffer pointers are hoisted into restrict-qualified locals --
    // stores through the member vector otherwise force the vectorizer to
    // assume they may alias the parameter arrays.
    reserve(n, 2 * n);
    xo_.fill(raw_.data(), 2 * rows);
    const std::uint64_t* __restrict raw = raw_.data();
    double* __restrict sel = tmp_.data();
    double p0[kL], p1[kL], p2[kL];
    for (std::size_t l = 0; l < kL; ++l) {
      p0[l] = p0_[l];
      p1[l] = p1_[l];
      p2[l] = p2_[l];
    }
    for (std::size_t i = 0; i < rows; ++i) {
      for (std::size_t l = 0; l < kL; ++l) {
        const double u1 = util::bits_to_unit(raw[(2 * i) * kL + l]);
        sel[i * kL + l] = u1 < p0[l] ? p1[l] : p2[l];  // -1/rate branch
        const double u2 = util::bits_to_unit(raw[(2 * i + 1) * kL + l]);
        out[i * kL + l] = u2 < 0x1.0p-53 ? 0x1.0p-53 : u2;
      }
    }
    util::log_block_inplace(out, n);
    for (std::size_t q = 0; q < n; ++q) out[q] *= sel[q];
  }

  FORKTAIL_VEC_INLINE void fill_weibull(double* __restrict out, std::size_t rows, std::size_t n) {
    reserve(0, n);
    xo_.fill(raw_.data(), rows);
    util::unit_pos_block(raw_.data(), out, n);
    util::log_block_inplace(out, n);  // log u, strictly negative
    // x = -log u; the quantile is scale * x^(1/shape).  When 1/shape is a
    // small integer shared by every lane (detected at construction) the
    // power is a repeated multiply -- exact to rounding, and ~2x cheaper
    // than the general exp((1/shape) * log x) path below.  Both paths are
    // within the vectorized-math golden band (docs/performance.md).
    if (weibull_ipow_ != 0) {
      const int m = weibull_ipow_;
      if (m == 2) {
        for (std::size_t q = 0; q < n; ++q) out[q] = out[q] * out[q];
      } else if (m == 3) {
        for (std::size_t q = 0; q < n; ++q) {
          const double x = -out[q];
          out[q] = x * x * x;
        }
      } else {
        for (std::size_t q = 0; q < n; ++q) {
          const double x2 = out[q] * out[q];
          out[q] = x2 * x2;
        }
      }
    } else {
      for (std::size_t q = 0; q < n; ++q) out[q] = util::vec_log(-out[q]);
      for (std::size_t i = 0; i < rows; ++i) {
        for (std::size_t l = 0; l < kL; ++l) out[i * kL + l] *= p0_[l];  // 1/shape
      }
      util::exp_block_inplace(out, n);
    }
    for (std::size_t i = 0; i < rows; ++i) {
      for (std::size_t l = 0; l < kL; ++l) out[i * kL + l] *= p1_[l];  // scale
    }
  }

  FORKTAIL_VEC_INLINE void fill_truncpareto(double* __restrict out, std::size_t rows,
                        std::size_t n) {
    reserve(0, n);
    xo_.fill(raw_.data(), rows);
    // x = L * exp(-log(1 - u*mass)/alpha); u unclamped, matching the scalar
    // path's plain uniform().
    for (std::size_t i = 0; i < rows; ++i) {
      for (std::size_t l = 0; l < kL; ++l) {
        const std::size_t q = i * kL + l;
        out[q] = 1.0 - util::bits_to_unit(raw_[q]) * p0_[l];  // trunc_mass
      }
    }
    util::log_block_inplace(out, n);
    for (std::size_t i = 0; i < rows; ++i) {
      for (std::size_t l = 0; l < kL; ++l) out[i * kL + l] *= p1_[l];  // -1/alpha
    }
    util::exp_block_inplace(out, n);
    for (std::size_t i = 0; i < rows; ++i) {
      for (std::size_t l = 0; l < kL; ++l) out[i * kL + l] *= p2_[l];  // lower
    }
  }

  FORKTAIL_VEC_INLINE void fill_lognormal(double* __restrict out, std::size_t rows,
                      std::size_t n) {
    reserve(n, n);
    xo_.fill(raw_.data(), rows);
    util::unit_pos_block(raw_.data(), tmp_.data(), n);
    // Acklam central rational, evaluated branch-free for every element;
    // the ~4.9% of draws outside [plow, 1-plow] are then overwritten by the
    // scalar tail path.  Junk values from the unconditional evaluation in
    // tail territory are discarded by that overwrite.
    for (std::size_t q = 0; q < n; ++q) {
      out[q] = util::normal_quantile_central(tmp_[q]);
    }
    constexpr double kPLow = util::kNormalCentralLow;
    for (std::size_t q = 0; q < n; ++q) {
      if (tmp_[q] < kPLow || tmp_[q] > 1.0 - kPLow) {
        out[q] = tail_normal_quantile(tmp_[q]);
      }
    }
    for (std::size_t i = 0; i < rows; ++i) {
      for (std::size_t l = 0; l < kL; ++l) {
        const std::size_t q = i * kL + l;
        out[q] = p0_[l] + p1_[l] * out[q];  // mu + sigma*z
      }
    }
    util::exp_block_inplace(out, n);
  }

  FORKTAIL_VEC_INLINE void fill_empirical(double* __restrict out, std::size_t rows,
                      std::size_t n) {
    reserve(0, n);
    xo_.fill(raw_.data(), rows);
    for (std::size_t i = 0; i < rows; ++i) {
      for (std::size_t l = 0; l < active_; ++l) {
        const std::size_t q = i * kL + l;
        out[q] = grids_[l]->quantile(util::bits_to_unit(raw_[q]));
      }
    }
  }

  FORKTAIL_VEC_INLINE void fill_generic(double* __restrict out, std::size_t rows) {
    if (col_.size() < rows) col_.resize(rows);
    for (std::size_t l = 0; l < kL; ++l) {
      if (l < active_) {
        dists_[l]->sample_n(rngs_[l], std::span<double>(col_.data(), rows));
        for (std::size_t i = 0; i < rows; ++i) out[i * kL + l] = col_[i];
      } else {
        for (std::size_t i = 0; i < rows; ++i) out[i * kL + l] = 0.0;
      }
    }
  }

  // Defined in vec_sampler.cpp (delegates to stats::normal_quantile) so this
  // header does not pull the special-functions dependency into every TU.
  static double tail_normal_quantile(double u);

  VecClass cls_{VecKind::kGeneric, 0};
  std::size_t active_ = 0;
  int weibull_ipow_ = 0;  // nonzero: all lanes share this integer 1/shape
  util::XoshiroBlock xo_;
  std::array<double, kL> p0_{}, p1_{}, p2_{};
  std::array<const Distribution*, kL> dists_{};
  std::vector<std::shared_ptr<const EmpiricalGrid>> grids_;
  std::vector<util::Rng> rngs_;
  std::vector<std::uint64_t> raw_;
  std::vector<double> tmp_;
  std::vector<double> col_;
};

}  // namespace forktail::dist
