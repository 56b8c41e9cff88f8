#include "finbench/vecmath/array_math.hpp"

#include <cassert>

#include "finbench/vecmath/vecmath.hpp"
#include "finbench/vecmath/vecmathf.hpp"

namespace finbench::vecmath {

namespace {

// Apply a generic lambda (templated on Vec type) over an array at width W.
template <int W, class F>
void apply_width(std::span<const double> in, std::span<double> out, F&& f) {
  assert(in.size() == out.size());
  using V = simd::Vec<double, W>;
  const std::size_t n = in.size();
  std::size_t i = 0;
  if constexpr (W > 1) {
    for (; i + W <= n; i += W) f(V::loadu(in.data() + i)).storeu(out.data() + i);
  }
  for (; i < n; ++i) out[i] = f(simd::Vec<double, 1>(in[i])).v;
}

template <class F>
void apply(std::span<const double> in, std::span<double> out, Width w, F&& f) {
  with_width(w, [&]<int W>() { apply_width<W>(in, out, f); });
}

}  // namespace

int max_width() noexcept { return simd::kMaxVectorWidth; }

void exp(std::span<const double> in, std::span<double> out, Width w) {
  apply(in, out, w, [](auto x) { return vecmath::exp(x); });
}
void log(std::span<const double> in, std::span<double> out, Width w) {
  apply(in, out, w, [](auto x) { return vecmath::log(x); });
}
void erf(std::span<const double> in, std::span<double> out, Width w) {
  apply(in, out, w, [](auto x) { return vecmath::erf(x); });
}
void erfc(std::span<const double> in, std::span<double> out, Width w) {
  apply(in, out, w, [](auto x) { return vecmath::erfc(x); });
}
void cnd(std::span<const double> in, std::span<double> out, Width w) {
  apply(in, out, w, [](auto x) { return vecmath::cnd(x); });
}
void inverse_cnd(std::span<const double> in, std::span<double> out, Width w) {
  apply(in, out, w, [](auto x) { return vecmath::inverse_cnd(x); });
}
void sqrt(std::span<const double> in, std::span<double> out, Width w) {
  apply(in, out, w, [](auto x) { return simd::sqrt(x); });
}

namespace {

template <int W>
void sincos_width(std::span<const double> in, std::span<double> s, std::span<double> c) {
  assert(in.size() == s.size() && in.size() == c.size());
  using V = simd::Vec<double, W>;
  const std::size_t n = in.size();
  std::size_t i = 0;
  if constexpr (W > 1) {
    for (; i + W <= n; i += W) {
      V sv, cv;
      vecmath::sincos(V::loadu(in.data() + i), sv, cv);
      sv.storeu(s.data() + i);
      cv.storeu(c.data() + i);
    }
  }
  for (; i < n; ++i) {
    simd::Vec<double, 1> sv, cv;
    vecmath::sincos(simd::Vec<double, 1>(in[i]), sv, cv);
    s[i] = sv.v;
    c[i] = cv.v;
  }
}

}  // namespace

void sincos(std::span<const double> in, std::span<double> sin_out, std::span<double> cos_out,
            Width w) {
  with_width(w, [&]<int W>() { sincos_width<W>(in, sin_out, cos_out); });
}

// --- Single precision -----------------------------------------------------

namespace {

template <int W, class F>
void apply_width_f(std::span<const float> in, std::span<float> out, F&& f) {
  assert(in.size() == out.size());
  using V = simd::Vec<float, W>;
  const std::size_t n = in.size();
  std::size_t i = 0;
  if constexpr (W > 1) {
    for (; i + W <= n; i += W) f(V::loadu(in.data() + i)).storeu(out.data() + i);
  }
  for (; i < n; ++i) out[i] = f(simd::Vec<float, 1>(in[i])).v;
}

template <class F>
void apply_f(std::span<const float> in, std::span<float> out, WidthF w, F&& f) {
  with_width(w, [&]<int W>() { apply_width_f<W>(in, out, f); });
}

}  // namespace

void expf(std::span<const float> in, std::span<float> out, WidthF w) {
  apply_f(in, out, w, [](auto x) { return vecmath::expf(x); });
}
void logf(std::span<const float> in, std::span<float> out, WidthF w) {
  apply_f(in, out, w, [](auto x) { return vecmath::logf(x); });
}
void erff(std::span<const float> in, std::span<float> out, WidthF w) {
  apply_f(in, out, w, [](auto x) { return vecmath::erff(x); });
}
void cndf(std::span<const float> in, std::span<float> out, WidthF w) {
  apply_f(in, out, w, [](auto x) { return vecmath::cndf(x); });
}

}  // namespace finbench::vecmath
