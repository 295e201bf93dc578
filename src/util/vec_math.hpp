// Vectorizable elementary-function kernels for the vector replay engine.
//
// libm's log/exp are scalar calls GCC cannot vectorize without -mveclibabi
// or vendor math libraries (which this repo does not depend on).  These
// block kernels are branch-free polynomial implementations written as plain
// element-wise C++ so the auto-vectorizer turns them into 4/8-lane SIMD at
// whatever -march the including translation unit uses — and, crucially,
// they produce BIT-IDENTICAL results at every ISA level when compiled with
// -ffp-contract=off (no fused multiply-add differences), which is what
// makes the vector engine's output independent of the dispatch level.
//
// The polynomials use EXPLICIT std::fma: -ffp-contract=off only forbids
// implicit contraction, while a spelled-out fma is one exact IEEE-754
// operation with identical results on every ISA level (hardware FMA on
// avx2/avx512 targets, glibc's correctly-rounded soft path on the baseline
// level) -- so cross-level bit identity is preserved at half the polynomial
// op count.
//
// Accuracy (measured against glibc libm over log-uniform draws spanning the
// samplers' input domains; pinned by tests/test_replay_vector.cpp):
//   log_block: max error ~4 ulp (~1e-15 relative; atanh-series rounding)
//   exp_block: max error ~1 ulp
// These differ from libm in the last ulp, so any value derived through them
// is a documented new golden relative to the scalar engines
// (docs/performance.md, "Golden-change policy").
#pragma once

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>

// The fjsim vector engine calls these helpers from functions carrying
// per-ISA __attribute__((target(...))) annotations (see
// fjsim/vector_engine_impl.hpp).  They MUST be force-inlined there: an
// out-of-line copy would be compiled for the baseline ISA and the call
// would fence off auto-vectorization of the whole pass.
#ifndef FORKTAIL_VEC_INLINE
#if defined(__GNUC__) || defined(__clang__)
#define FORKTAIL_VEC_INLINE inline __attribute__((always_inline))
#else
#define FORKTAIL_VEC_INLINE inline
#endif
#endif

namespace forktail::util {

/// Natural log of one positive normal double (scalar core of log_block).
/// Decomposes x = 2^e * m with m in [sqrt(1/2), sqrt(2)), then evaluates
/// the atanh series log(m) = 2r(1 + r^2/3 + r^4/5 + ...), r = (m-1)/(m+1),
/// truncated at r^23 (|r| <= 0.1716 so the dropped term is < 1e-19), and
/// reconstitutes with a hi/lo split of log(2).
FORKTAIL_VEC_INLINE double vec_log(double x) noexcept {
  const std::uint64_t bx = std::bit_cast<std::uint64_t>(x);
  // Adding ~sqrt(2)'s mantissa offset before extracting the exponent moves
  // the decomposition boundary from m in [1,2) to m in [sqrt(1/2), sqrt(2)).
  const std::uint64_t adj = bx + 0x0005'2000'0000'0000ULL;
  const std::int64_t e = static_cast<std::int64_t>(adj >> 52) - 1023;
  const double m =
      std::bit_cast<double>(bx - (static_cast<std::uint64_t>(e) << 52));
  const double r = (m - 1.0) / (m + 1.0);
  const double r2 = r * r;
  double p = 1.0 / 23.0;
  p = std::fma(p, r2, 1.0 / 21.0);
  p = std::fma(p, r2, 1.0 / 19.0);
  p = std::fma(p, r2, 1.0 / 17.0);
  p = std::fma(p, r2, 1.0 / 15.0);
  p = std::fma(p, r2, 1.0 / 13.0);
  p = std::fma(p, r2, 1.0 / 11.0);
  p = std::fma(p, r2, 1.0 / 9.0);
  p = std::fma(p, r2, 1.0 / 7.0);
  p = std::fma(p, r2, 1.0 / 5.0);
  p = std::fma(p, r2, 1.0 / 3.0);
  p = std::fma(p, r2, 1.0);
  const double lm = 2.0 * r * p;
  const double de = static_cast<double>(e);
  // Cody-Waite: ln2 split into a 32-bit head (so de*head is EXACT for any
  // exponent |de| < 2^20 -- a full-mantissa head would round and leak
  // ~ulp(de*ln2) into the sum) plus the fdlibm tail.
  return std::fma(de, 0x1.62e42feep-1,
                  std::fma(de, 0x1.a39ef35793c76p-33, lm));
}

/// e^x for |x| <= ~708 (scalar core of exp_block).  Range reduction
/// x = n*ln2 + f with |f| <= ln2/2 via magic-number rounding, degree-13
/// Taylor for e^f (the degree-11 remainder f^12/12! is ~6e-15 relative at
/// |f| = ln2/2 -- tens of ulp; two more terms push it below 2^-57),
/// exponent splice for the 2^n scale.
FORKTAIL_VEC_INLINE double vec_exp(double x) noexcept {
  // Round x/ln2 to nearest integer: adding 1.5*2^52 forces the mantissa to
  // integer granularity; subtracting recovers the rounded value.
  constexpr double kShift = 0x1.8p52;
  const double nd = std::fma(x, 0x1.71547652b82fep+0, kShift) - kShift;
  // Same Cody-Waite pair as vec_log: nd*head is exact (|nd| < 2^11 here),
  // so the reduced argument f carries only the tail product's rounding.
  const double f = std::fma(nd, -0x1.a39ef35793c76p-33,
                            std::fma(nd, -0x1.62e42feep-1, x));
  double p = 1.0 / 6227020800.0;
  p = std::fma(p, f, 1.0 / 479001600.0);
  p = std::fma(p, f, 1.0 / 39916800.0);
  p = std::fma(p, f, 1.0 / 3628800.0);
  p = std::fma(p, f, 1.0 / 362880.0);
  p = std::fma(p, f, 1.0 / 40320.0);
  p = std::fma(p, f, 1.0 / 5040.0);
  p = std::fma(p, f, 1.0 / 720.0);
  p = std::fma(p, f, 1.0 / 120.0);
  p = std::fma(p, f, 1.0 / 24.0);
  p = std::fma(p, f, 1.0 / 6.0);
  p = std::fma(p, f, 0.5);
  p = std::fma(p, f, 1.0);
  p = std::fma(p, f, 1.0);
  // Splice 2^n into the result's exponent.  All sampler inputs keep the
  // result well inside the normal range, so no overflow/subnormal handling.
  const auto n = static_cast<std::int64_t>(nd);
  const std::uint64_t bp = std::bit_cast<std::uint64_t>(p);
  return std::bit_cast<double>(bp + (static_cast<std::uint64_t>(n) << 52));
}

/// Acklam's central rational for the standard normal quantile: z with
/// Phi(z) ~= p, |error| ~1e-9, valid for p in [0.02425, 1 - 0.02425]
/// (outside it callers switch to stats::normal_quantile).  Plain
/// multiply-adds, no fma, so it is bit-identical at every ISA level when
/// compiled with -ffp-contract=off, and at the baseline -march anywhere.
FORKTAIL_VEC_INLINE double normal_quantile_central(double p) noexcept {
  const double t = p - 0.5;
  const double r = t * t;
  const double num =
      (((((-3.969683028665376e+01 * r + 2.209460984245205e+02) * r +
          -2.759285104469687e+02) *
             r +
         1.383577518672690e+02) *
            r +
        -3.066479806614716e+01) *
           r +
       2.506628277459239e+00) *
      t;
  const double den =
      ((((-5.447609879822406e+01 * r + 1.615858368580409e+02) * r +
         -1.556989798598866e+02) *
            r +
        6.680131188771972e+01) *
           r +
       -1.328068155288572e+01) *
          r +
      1.0;
  return num / den;
}

/// Lower edge of normal_quantile_central's region.
inline constexpr double kNormalCentralLow = 0.02425;

/// out[i] = log(x[i]) for positive normal x.
FORKTAIL_VEC_INLINE void log_block(const double* __restrict x, double* __restrict out,
                      std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) out[i] = vec_log(x[i]);
}

/// x[i] = log(x[i]) in place.
FORKTAIL_VEC_INLINE void log_block_inplace(double* __restrict x, std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) x[i] = vec_log(x[i]);
}

/// x[i] = exp(x[i]) in place.
FORKTAIL_VEC_INLINE void exp_block_inplace(double* __restrict x, std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) x[i] = vec_exp(x[i]);
}

}  // namespace forktail::util
