#include "stats/roots.hpp"

#include <cmath>
#include <stdexcept>

namespace forktail::stats {

namespace {
bool opposite_signs(double a, double b) {
  return (a <= 0.0 && b >= 0.0) || (a >= 0.0 && b <= 0.0);
}
}  // namespace

double brent(const std::function<double(double)>& f, double lo, double hi,
             const RootOptions& opts) {
  return brent_traced(f, lo, hi, opts).root;
}

RootResult brent_traced(const std::function<double(double)>& f, double lo,
                        double hi, const RootOptions& opts) {
  double a = lo;
  double b = hi;
  double fa = f(a);
  double fb = f(b);
  if (fa == 0.0) return {a, 0, true};
  if (fb == 0.0) return {b, 0, true};
  if (!opposite_signs(fa, fb)) {
    throw std::invalid_argument("brent: root not bracketed");
  }
  if (std::fabs(fa) < std::fabs(fb)) {
    std::swap(a, b);
    std::swap(fa, fb);
  }
  double c = a;
  double fc = fa;
  bool mflag = true;
  double d = 0.0;

  for (int i = 0; i < opts.max_iterations; ++i) {
    if (fb == 0.0 || std::fabs(b - a) < opts.x_tolerance ||
        (opts.f_tolerance > 0.0 && std::fabs(fb) <= opts.f_tolerance)) {
      return {b, i, true};
    }
    double s;
    if (fa != fc && fb != fc) {
      // inverse quadratic interpolation
      s = a * fb * fc / ((fa - fb) * (fa - fc)) +
          b * fa * fc / ((fb - fa) * (fb - fc)) +
          c * fa * fb / ((fc - fa) * (fc - fb));
    } else {
      // secant
      s = b - fb * (b - a) / (fb - fa);
    }
    const double mid = 0.5 * (a + b);
    const bool cond1 = !((s > mid && s < b) || (s < mid && s > b));
    const bool cond2 = mflag && std::fabs(s - b) >= std::fabs(b - c) / 2.0;
    const bool cond3 = !mflag && std::fabs(s - b) >= std::fabs(c - d) / 2.0;
    const bool cond4 = mflag && std::fabs(b - c) < opts.x_tolerance;
    const bool cond5 = !mflag && std::fabs(c - d) < opts.x_tolerance;
    if (cond1 || cond2 || cond3 || cond4 || cond5) {
      s = mid;
      mflag = true;
    } else {
      mflag = false;
    }
    const double fs = f(s);
    d = c;
    c = b;
    fc = fb;
    if (opposite_signs(fa, fs)) {
      b = s;
      fb = fs;
    } else {
      a = s;
      fa = fs;
    }
    if (std::fabs(fa) < std::fabs(fb)) {
      std::swap(a, b);
      std::swap(fa, fb);
    }
  }
  return {b, opts.max_iterations, false};
}

double brent_expand_upper(const std::function<double(double)>& f, double lo,
                          double hi_initial, const RootOptions& opts) {
  double hi = hi_initial > lo ? hi_initial : lo * 2.0 + 1.0;
  const double flo = f(lo);
  double fhi = f(hi);
  int expansions = 0;
  while (!opposite_signs(flo, fhi)) {
    hi = lo + (hi - lo) * 2.0;
    fhi = f(hi);
    if (++expansions > 200) {
      throw std::runtime_error("brent_expand_upper: failed to bracket root");
    }
  }
  return brent(f, lo, hi, opts);
}

}  // namespace forktail::stats
