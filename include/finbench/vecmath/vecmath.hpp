// finbench/vecmath/vecmath.hpp
//
// Short-vector transcendental math: the library's substitute for the Intel
// Short Vector Math Library (SVML) that the paper's optimized kernels rely
// on (Sec. IV-A2). Every function is written once, generically over
// simd::Vec<double, W>, so the W=1 instantiation is an executable
// specification for the SIMD instantiations.
//
// Implementations:
//   exp     — Cody–Waite argument reduction + degree-11 polynomial
//   log     — exponent/mantissa split + atanh-series in s=(m-1)/(m+1)
//   erf/erfc— W. J. Cody's three-region rational approximations (CALERF)
//   cnd     — standard normal CDF via erfc (tail-accurate)
//   inverse_cnd — Acklam's rational approximation + one Halley refinement
//   sincos  — 3-part Cody–Waite pi/2 reduction + minimax polynomials
//
// Accuracy (validated in tests/test_vecmath.cpp against libm):
//   exp/log: <= 2 ulp over the finance-relevant domain
//   erf/erfc/cnd: <= 4 ulp; cnd is tail-accurate down to ~1e-300
//   inverse_cnd: <= 1e-14 relative after refinement
//
// Domain notes: exp underflows to 0 below -708.39 (the smallest normal
// result) rather than producing subnormals; sincos requires |x| < 2^30.

#pragma once

#include <limits>

#include "finbench/simd/vec.hpp"
#include "finbench/vecmath/array_math.hpp"

namespace finbench::vecmath {

// The kernels' width dispatch: runs f.template operator()<W>() with W the
// lane count `w` selects — 1, 4, or the widest compiled in
// (simd::kMaxVectorWidth) for kAvx512 and kAuto — and returns its result.
template <class F>
decltype(auto) with_width(Width w, F&& f) {
  if (w == Width::kScalar) return f.template operator()<1>();
  if (w == Width::kAvx2) return f.template operator()<4>();
  return f.template operator()<simd::kMaxVectorWidth>();
}

// Single precision: 1, 8, or twice the widest double lane count.
template <class F>
decltype(auto) with_width(WidthF w, F&& f) {
  if (w == WidthF::kScalar) return f.template operator()<1>();
  if (w == WidthF::kAvx2) return f.template operator()<8>();
  return f.template operator()<2 * simd::kMaxVectorWidth>();
}

using simd::Mask;
using simd::Vec;

namespace detail {

inline constexpr double kLog2E = 1.4426950408889634074;     // log2(e)
inline constexpr double kLn2Hi = 6.93145751953125e-1;       // ln2 high part
inline constexpr double kLn2Lo = 1.42860682030941723212e-6; // ln2 low part
inline constexpr double kSqrt2 = 1.41421356237309504880;
inline constexpr double kInvSqrtPi = 5.6418958354775628695e-1;  // 1/sqrt(pi)
inline constexpr double kInvSqrt2 = 7.0710678118654752440e-1;
inline constexpr double kSqrt2Pi = 2.5066282746310005024;
inline constexpr double kExpOverflow = 709.782712893383996;
inline constexpr double kExpUnderflow = -708.396418532264106;

}  // namespace detail

// ---------------------------------------------------------------------------
// exp
// ---------------------------------------------------------------------------

template <class V> inline V exp(V x) {
  using namespace detail;
  using M = typename V::mask_type;

  const M too_big = x > V(kExpOverflow);
  const M too_small = x < V(kExpUnderflow);
  const M is_nan = x != x;

  // Reduce: x = n*ln2 + r, |r| <= ln2/2.
  V n = round_nearest(x * V(kLog2E));
  V r = fnmadd(n, V(kLn2Hi), x);
  r = fnmadd(n, V(kLn2Lo), r);

  // exp(r) via degree-13 Taylor/Horner (coefficients 1/k!).
  V p = V(1.0 / 6227020800.0);
  p = fmadd(p, r, V(1.0 / 479001600.0));
  p = fmadd(p, r, V(1.0 / 39916800.0));
  p = fmadd(p, r, V(1.0 / 3628800.0));
  p = fmadd(p, r, V(1.0 / 362880.0));
  p = fmadd(p, r, V(1.0 / 40320.0));
  p = fmadd(p, r, V(1.0 / 5040.0));
  p = fmadd(p, r, V(1.0 / 720.0));
  p = fmadd(p, r, V(1.0 / 120.0));
  p = fmadd(p, r, V(1.0 / 24.0));
  p = fmadd(p, r, V(1.0 / 6.0));
  p = fmadd(p, r, V(0.5));
  p = fmadd(p, r, V(1.0));
  p = fmadd(p, r, V(1.0));

  // Scale by 2^n. n is clamped implicitly by the over/underflow masks.
  n = min(max(n, V(-1022.0)), V(1023.0));
  V result = p * simd::pow2n(n);

  result = select(too_big, V(std::numeric_limits<double>::infinity()), result);
  result = select(too_small, V(0.0), result);
  result = select(is_nan, x, result);
  return result;
}

// ---------------------------------------------------------------------------
// log
// ---------------------------------------------------------------------------

template <class V> inline V log(V x) {
  using namespace detail;
  using M = typename V::mask_type;

  const M not_pos = !(x > V(0.0));
  const M is_inf = x == V(std::numeric_limits<double>::infinity());
  // Scale subnormals into the normal range before the exponent split.
  const M subnormal = (x > V(0.0)) & (x < V(2.2250738585072014e-308));
  V xs = select(subnormal, x * V(0x1p54), x);
  const V ebias = select(subnormal, V(54.0), V(0.0));

  V m, e;
  simd::split_exponent(xs, m, e);
  // Keep m in [sqrt(2)/2, sqrt(2)) so s = (m-1)/(m+1) is small.
  const M upper = m > V(kSqrt2);
  m = select(upper, m * V(0.5), m);
  e = select(upper, e + V(1.0), e) - ebias;

  const V s = (m - V(1.0)) / (m + V(1.0));
  const V z = s * s;
  // 2*atanh(s) = 2s * (1 + z/3 + z^2/5 + ...): truncated odd series.
  V p = V(2.0 / 19.0);
  p = fmadd(p, z, V(2.0 / 17.0));
  p = fmadd(p, z, V(2.0 / 15.0));
  p = fmadd(p, z, V(2.0 / 13.0));
  p = fmadd(p, z, V(2.0 / 11.0));
  p = fmadd(p, z, V(2.0 / 9.0));
  p = fmadd(p, z, V(2.0 / 7.0));
  p = fmadd(p, z, V(2.0 / 5.0));
  p = fmadd(p, z, V(2.0 / 3.0));
  V log_m = fmadd(p * z, s, s + s);

  V result = fmadd(e, V(kLn2Hi), fmadd(e, V(kLn2Lo), log_m));

  result = select(is_inf, x, result);
  result = select(x == V(0.0), V(-std::numeric_limits<double>::infinity()), result);
  result = select(not_pos & !(x == V(0.0)), V(std::numeric_limits<double>::quiet_NaN()), result);
  return result;
}

// ---------------------------------------------------------------------------
// erf / erfc (Cody's CALERF rational approximations)
// ---------------------------------------------------------------------------

namespace detail {

// Region 1: erf(x) for |x| <= 0.46875.
template <class V> inline V erf_small(V x) {
  const V z = x * x;
  V num = fmadd(V(1.85777706184603153e-1), z, V(3.16112374387056560e+0));
  V den = z + V(2.36012909523441209e+1);
  num = fmadd(num, z, V(1.13864154151050156e+2));
  den = fmadd(den, z, V(2.44024637934444173e+2));
  num = fmadd(num, z, V(3.77485237685302021e+2));
  den = fmadd(den, z, V(1.28261652607737228e+3));
  num = fmadd(num, z, V(3.20937758913846947e+3));
  den = fmadd(den, z, V(2.84423683343917062e+3));
  return x * num / den;
}

// exp(-y*y) with the split-argument trick for full accuracy at large y.
template <class V> inline V exp_neg_sq(V y) {
  // ysq = y rounded to 1/16 so ysq*ysq is exact; correct with the residual.
  const V ysq = round_nearest(y * V(16.0)) * V(0.0625);
  const V del = (y - ysq) * (y + ysq);
  return exp(-(ysq * ysq)) * exp(-del);
}

// Region 2: erfc(y)*exp(y*y) for 0.46875 < y <= 4.
template <class V> inline V erfcx_mid(V y) {
  V num = fmadd(V(2.15311535474403846e-8), y, V(5.64188496988670089e-1));
  V den = y + V(1.57449261107098347e+1);
  num = fmadd(num, y, V(8.88314979438837594e+0));
  den = fmadd(den, y, V(1.17693950891312499e+2));
  num = fmadd(num, y, V(6.61191906371416295e+1));
  den = fmadd(den, y, V(5.37181101862009858e+2));
  num = fmadd(num, y, V(2.98635138197400131e+2));
  den = fmadd(den, y, V(1.62138957456669019e+3));
  num = fmadd(num, y, V(8.81952221241769090e+2));
  den = fmadd(den, y, V(3.29079923573345963e+3));
  num = fmadd(num, y, V(1.71204761263407058e+3));
  den = fmadd(den, y, V(4.36261909014324716e+3));
  num = fmadd(num, y, V(2.05107837782607147e+3));
  den = fmadd(den, y, V(3.43936767414372164e+3));
  num = fmadd(num, y, V(1.23033935479799725e+3));
  den = fmadd(den, y, V(1.23033935480374942e+3));
  return num / den;
}

// Region 3: erfc(y)*exp(y*y) for y > 4.
template <class V> inline V erfcx_large(V y) {
  const V z = V(1.0) / (y * y);
  V num = fmadd(V(1.63153871373020978e-2), z, V(3.05326634961232344e-1));
  V den = z + V(2.56852019228982242e+0);
  num = fmadd(num, z, V(3.60344899949804439e-1));
  den = fmadd(den, z, V(1.87295284992346047e+0));
  num = fmadd(num, z, V(1.25781726111229246e-1));
  den = fmadd(den, z, V(5.27905102951428412e-1));
  num = fmadd(num, z, V(1.60837851487422766e-2));
  den = fmadd(den, z, V(6.05183413124413191e-2));
  num = fmadd(num, z, V(6.58749161529837803e-4));
  den = fmadd(den, z, V(2.33520497626869185e-3));
  const V r = z * num / den;
  return (V(kInvSqrtPi) - r) / y;
}

// erfc(y) for y >= 0.46875 (combines regions 2 and 3 with masks).
template <class V> inline V erfc_tail(V y) {
  using M = typename V::mask_type;
  const M mid = y <= V(4.0);
  // Avoid computing garbage lanes: clamp the inactive region's argument.
  const V erfcx = select(mid, erfcx_mid(min(y, V(4.0))), erfcx_large(max(y, V(4.0))));
  // erfc underflows for y >~ 26.54.
  V r = exp_neg_sq(y) * erfcx;
  return select(y > V(26.6), V(0.0), r);
}

}  // namespace detail

template <class V> inline V erf(V x) {
  using M = typename V::mask_type;
  const V y = abs(x);
  const M small = y <= V(0.46875);
  const V small_val = detail::erf_small(select(small, x, V(0.0)));
  const V tail = V(1.0) - detail::erfc_tail(max(y, V(0.46875)));
  const V tail_val = simd::copysign(tail, x);
  return select(small, small_val, tail_val);
}

template <class V> inline V erfc(V x) {
  using M = typename V::mask_type;
  const V y = abs(x);
  const M small = y <= V(0.46875);
  const V small_val = V(1.0) - detail::erf_small(select(small, x, V(0.0)));
  V tail = detail::erfc_tail(max(y, V(0.46875)));
  tail = select(x < V(0.0), V(2.0) - tail, tail);
  return select(small, small_val, tail);
}

// Standard normal CDF. Computed through erfc so that deep negative tails
// (down to ~1e-300) keep full relative accuracy — the property the paper's
// Black-Scholes kernel relies on when substituting cnd with erf (Sec. IV-A2).
template <class V> inline V cnd(V x) {
  return V(0.5) * erfc(-x * V(detail::kInvSqrt2));
}

// ---------------------------------------------------------------------------
// inverse_cnd (Wichura's AS241 / PPND16: pure rationals, full double
// precision without iterative refinement — the central path costs no
// transcendentals at all, which is what makes the ICDF normal transform
// competitive on wide SIMD)
// ---------------------------------------------------------------------------

namespace detail {

// |q| = |p - 0.5| <= 0.425: x = q * A(r)/B(r), r = 0.180625 - q^2.
template <class V> inline V ppnd16_central(V q) {
  const V r = fnmadd(q, q, V(0.180625));
  V num = fmadd(V(2.5090809287301226727e+3), r, V(3.3430575583588128105e+4));
  num = fmadd(num, r, V(6.7265770927008700853e+4));
  num = fmadd(num, r, V(4.5921953931549871457e+4));
  num = fmadd(num, r, V(1.3731693765509461125e+4));
  num = fmadd(num, r, V(1.9715909503065514427e+3));
  num = fmadd(num, r, V(1.3314166789178437745e+2));
  num = fmadd(num, r, V(3.3871328727963666080e+0));
  V den = fmadd(V(5.2264952788528545610e+3), r, V(2.8729085735721942674e+4));
  den = fmadd(den, r, V(3.9307895800092710610e+4));
  den = fmadd(den, r, V(2.1213794301586595867e+4));
  den = fmadd(den, r, V(5.3941960214247511077e+3));
  den = fmadd(den, r, V(6.8718700749205790830e+2));
  den = fmadd(den, r, V(4.2313330701600911252e+1));
  den = fmadd(den, r, V(1.0));
  return q * num / den;
}

// r = sqrt(-ln(p_tail)), 1.6 < r <= 5 (i.e. p_tail down to ~1.4e-11).
template <class V> inline V ppnd16_mid(V r) {
  const V rr = r - V(1.6);
  V num = fmadd(V(7.74545014278341407640e-4), rr, V(2.27238449892691845833e-2));
  num = fmadd(num, rr, V(2.41780725177450611770e-1));
  num = fmadd(num, rr, V(1.27045825245236838258e+0));
  num = fmadd(num, rr, V(3.64784832476320460504e+0));
  num = fmadd(num, rr, V(5.76949722146069140550e+0));
  num = fmadd(num, rr, V(4.63033784615654529590e+0));
  num = fmadd(num, rr, V(1.42343711074968357734e+0));
  V den = fmadd(V(1.05075007164441684324e-9), rr, V(5.47593808499534494600e-4));
  den = fmadd(den, rr, V(1.51986665636164571966e-2));
  den = fmadd(den, rr, V(1.48103976427480074590e-1));
  den = fmadd(den, rr, V(6.89767334985100004550e-1));
  den = fmadd(den, rr, V(1.67638483018380384940e+0));
  den = fmadd(den, rr, V(2.05319162663775882187e+0));
  den = fmadd(den, rr, V(1.0));
  return num / den;
}

// r > 5 (p_tail below ~1.4e-11, down to the smallest doubles).
template <class V> inline V ppnd16_far(V r) {
  const V rr = r - V(5.0);
  V num = fmadd(V(2.01033439929228813265e-7), rr, V(2.71155556874348757815e-5));
  num = fmadd(num, rr, V(1.24266094738807843860e-3));
  num = fmadd(num, rr, V(2.65321895265761230930e-2));
  num = fmadd(num, rr, V(2.96560571828504891230e-1));
  num = fmadd(num, rr, V(1.78482653991729133580e+0));
  num = fmadd(num, rr, V(5.46378491116411436990e+0));
  num = fmadd(num, rr, V(6.65790464350110377720e+0));
  V den = fmadd(V(2.04426310338993978564e-15), rr, V(1.42151175831644588870e-7));
  den = fmadd(den, rr, V(1.84631831751005468180e-5));
  den = fmadd(den, rr, V(7.86869131145613259100e-4));
  den = fmadd(den, rr, V(1.48753612908506148525e-2));
  den = fmadd(den, rr, V(1.36929880922735805310e-1));
  den = fmadd(den, rr, V(5.99832206555887937690e-1));
  den = fmadd(den, rr, V(1.0));
  return num / den;
}

}  // namespace detail

// Inverse of cnd: returns x with cnd(x) = p, for p in (0, 1).
template <class V> inline V inverse_cnd(V p) {
  using namespace detail;
  using M = typename V::mask_type;

  const V q = p - V(0.5);
  const M central = abs(q) <= V(0.425);

  V x;
  if (central.all()) {
    // Fast path: 85% of uniform inputs per lane, so most full vectors —
    // no log/sqrt, pure rational arithmetic.
    x = ppnd16_central(q);
  } else {
    // Tail lanes: r = sqrt(-ln(min(p, 1-p))), sign restored at the end.
    const M lower = q < V(0.0);
    const V p_tail = select(lower, p, V(1.0) - p);
    const V p_safe = select(central, V(0.1), p_tail);  // keep log() happy
    const V r = sqrt(-log(p_safe));
    const M mid = r <= V(5.0);
    V tail = select(mid, ppnd16_mid(min(r, V(5.0))), ppnd16_far(max(r, V(5.0))));
    tail = select(lower, -tail, tail);
    x = select(central, ppnd16_central(q), tail);
  }

  // Edge cases.
  x = select(p <= V(0.0), V(-std::numeric_limits<double>::infinity()), x);
  x = select(p >= V(1.0), V(std::numeric_limits<double>::infinity()), x);
  return x;
}

// ---------------------------------------------------------------------------
// sincos (Cody–Waite reduction; |x| < 2^30)
// ---------------------------------------------------------------------------

namespace detail {

inline constexpr double kTwoOverPi = 6.36619772367581382433e-1;
inline constexpr double kPio2Hi = 1.57079632673412561417e+0;
inline constexpr double kPio2Mid = 6.07710050650619224932e-11;
inline constexpr double kPio2Lo = 2.02226624879595063154e-21;

// sin(r) for |r| <= pi/4 (degree-13 odd polynomial).
template <class V> inline V sin_poly(V r) {
  const V z = r * r;
  V p = V(1.58962301576546568060e-10);
  p = fmadd(p, z, V(-2.50507477628578072866e-8));
  p = fmadd(p, z, V(2.75573136213857245213e-6));
  p = fmadd(p, z, V(-1.98412698295895385996e-4));
  p = fmadd(p, z, V(8.33333333332211858878e-3));
  p = fmadd(p, z, V(-1.66666666666666307295e-1));
  return fmadd(p * z, r, r);
}

// cos(r) for |r| <= pi/4 (degree-14 even polynomial).
template <class V> inline V cos_poly(V r) {
  const V z = r * r;
  V p = V(-1.13585365213876817300e-11);
  p = fmadd(p, z, V(2.08757008419747316778e-9));
  p = fmadd(p, z, V(-2.75573141792967388112e-7));
  p = fmadd(p, z, V(2.48015872888517179954e-5));
  p = fmadd(p, z, V(-1.38888888888730564116e-3));
  p = fmadd(p, z, V(4.16666666666665929218e-2));
  return fmadd(p, z * z, fnmadd(V(0.5), z, V(1.0)));
}

}  // namespace detail

// Simultaneous sin and cos. Quadrant selection is branch-free.
template <class V> inline void sincos(V x, V& s, V& c) {
  using namespace detail;
  using I = typename V::int_type;
  using M = typename V::mask_type;

  const V n = round_nearest(x * V(kTwoOverPi));
  V r = fnmadd(n, V(kPio2Hi), x);
  r = fnmadd(n, V(kPio2Mid), r);
  r = fnmadd(n, V(kPio2Lo), r);

  const V sp = sin_poly(r);
  const V cp = cos_poly(r);

  // Quadrant q = n mod 4 decides which polynomial lands where and the signs.
  const I q = to_int(n) & I(3);
  const V qd = to_double(q);
  const M swap = (qd == V(1.0)) | (qd == V(3.0));     // odd quadrant: swap
  const M s_neg = qd >= V(2.0);                       // sin negative in q2,q3
  const M c_neg = (qd == V(1.0)) | (qd == V(2.0));    // cos negative in q1,q2

  V sv = select(swap, cp, sp);
  V cv = select(swap, sp, cp);
  sv = select(s_neg, -sv, sv);
  cv = select(c_neg, -cv, cv);
  s = sv;
  c = cv;
}

template <class V> inline V sin(V x) { V s, c; sincos(x, s, c); return s; }
template <class V> inline V cos(V x) { V s, c; sincos(x, s, c); return c; }

}  // namespace finbench::vecmath
