// Scalar root finding: the library's one bisection, and Brent's method.
//
// `bisect` halves a bracket on a monotone predicate.  It is the only
// halving loop in the library: every inversion that must land on a
// certified side of a crossing (service quantiles, the degraded-mode
// request quantile, the Lundberg root, the EVT sojourn asymptote, the
// linear-bounds brackets, the provisioning searches) grows its own bracket
// and hands it here.  Brent inverts smooth sign changes: the GE
// moment-ratio equation (fit alpha from mean and variance) and the
// mixture CDFs of Eqs. 4 and 8.
#pragma once

#include <functional>

namespace forktail::stats {

struct RootOptions {
  double x_tolerance = 1e-12;   ///< absolute tolerance on the root location
  double f_tolerance = 0.0;     ///< stop when |f| <= this (0 = off)
  int max_iterations = 200;
};

/// Outcome of a traced solve: the root plus how hard it was to find --
/// feeds the observability layer's moment-match iteration histograms.
struct RootResult {
  double root = 0.0;
  int iterations = 0;      ///< f evaluations beyond the two bracket probes
  bool converged = true;   ///< false when max_iterations ran out
};

/// The ends of a bisection bracket: below(lo) holds, below(hi) does not.
struct Bracket {
  double lo = 0.0;
  double hi = 0.0;
  double mid() const { return 0.5 * (lo + hi); }
};

/// Halvings after which bisect stops whatever the bracket's width.
inline constexpr int kMaxHalvings = 200;

/// Halve [lo, hi] on a monotone predicate: `below` holds left of a
/// crossing and fails right of it.  The caller has established below(lo)
/// and !below(hi); `below` is evaluated only at midpoints, one per
/// halving, so the ends keep that invariant.  Stops on the first of: the
/// width is within abs_tol + rel_tol * (1 + hi); the midpoint rounds onto
/// an end (lo and hi are adjacent doubles, which is where zero tolerances
/// stop); kMaxHalvings halvings.
template <typename Below>
Bracket bisect(Below&& below, double lo, double hi, double abs_tol = 0.0,
               double rel_tol = 0.0) {
  for (int i = 0;
       i < kMaxHalvings && hi - lo > abs_tol + rel_tol * (1.0 + hi); ++i) {
    const double mid = 0.5 * (lo + hi);
    if (mid == lo || mid == hi) break;
    (below(mid) ? lo : hi) = mid;
  }
  return {lo, hi};
}

/// Brent's method: bracketing with inverse quadratic interpolation;
/// superlinear convergence with bisection's robustness.
double brent(const std::function<double(double)>& f, double lo, double hi,
             const RootOptions& opts = {});

/// As `brent`, but also reports the iteration count and whether the
/// tolerance was met within the iteration budget.
RootResult brent_traced(const std::function<double(double)>& f, double lo,
                        double hi, const RootOptions& opts = {});

/// Expand [lo, hi] geometrically upward until f changes sign, then Brent.
/// Requires f(lo) and the eventual f(hi) to differ in sign; used for
/// quantile inversion where the upper bracket is unknown.
double brent_expand_upper(const std::function<double(double)>& f, double lo,
                          double hi_initial, const RootOptions& opts = {});

}  // namespace forktail::stats
