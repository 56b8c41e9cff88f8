// Internal to src/robust: the branch-free range scan the sanitizer, the
// output guard and the engine's per-chunk checks share. One SIMD compare
// pair per vector, AND-accumulated into a lane mask with no early exit, so
// a clean range costs one streaming read of its data. NaN fails both
// comparisons, so a range with any NaN is never "within".

#pragma once

#include <cmath>
#include <cstddef>
#include <limits>
#include <type_traits>

#include "finbench/simd/vec.hpp"
#include "finbench/simd/vecf.hpp"

namespace finbench::robust::scan {

#if defined(FINBENCH_HAVE_AVX512)
inline constexpr int kDoubleLanes = 8;
#else
inline constexpr int kDoubleLanes = 4;
#endif

// Block size of the sanitizer's and guard's two-speed sweeps: a clean
// block is skipped after one vector scan, a dirty one takes the exact
// per-element path.
inline constexpr std::size_t kBlock = 256;

// True when lo <= x[i] <= hi for every i in [0, n).
template <class T>
bool all_within(const T* x, std::size_t n, T lo, T hi) {
  constexpr int W = std::is_same_v<T, float> ? 2 * kDoubleLanes : kDoubleLanes;
  using V = simd::Vec<T, W>;
  const V vlo(lo), vhi(hi);
  auto ok = vlo <= vhi;
  std::size_t i = 0;
  for (; i + W <= n; i += W) {
    const V v = V::loadu(x + i);
    ok = ok & (v >= vlo) & (v <= vhi);
  }
  bool tail = lo <= hi;
  for (; i < n; ++i) tail &= (x[i] >= lo) & (x[i] <= hi);
  return ok.all() & tail;
}

// True when every x[i] in [0, n) is finite.
template <class T>
bool all_finite(const T* x, std::size_t n) {
  constexpr T kMax = std::numeric_limits<T>::max();
  return all_within(x, n, -kMax, kMax);
}

// Float bounds that select exactly the floats whose double value lies in
// [lo, hi], so an f32 scan agrees with the sanitizer's f64 classification.
inline float float_floor(double lo) {
  float f = static_cast<float>(lo);
  if (static_cast<double>(f) < lo) f = std::nextafter(f, std::numeric_limits<float>::infinity());
  return f;
}
inline float float_ceil(double hi) {
  float f = static_cast<float>(hi);
  if (static_cast<double>(f) > hi) f = std::nextafter(f, -std::numeric_limits<float>::infinity());
  return f;
}

}  // namespace finbench::robust::scan
