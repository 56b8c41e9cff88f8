// finbench/simd/vecf.hpp
//
// Single-precision SIMD wrapper classes: Vec<float, W> for W in {1, 8, 16}
// (scalar, AVX2 __m256, AVX-512 __m512), mirroring the double-precision
// classes in vec.hpp. Table I of the paper quotes separate SP peaks
// (691 / 2127 GF/s) — single precision doubles the lane count, and the SP
// Black-Scholes variant exercises exactly that.
//
// The integer companion VecI32<W> carries the exponent bit manipulation
// for the float transcendental kernels (vecmathf.hpp).

#pragma once

#include <cmath>
#include <cstdint>
#include <cstring>
#include <immintrin.h>

#include "finbench/simd/vec.hpp"

namespace finbench::simd {

template <int W> struct VecI32;

// ---------------------------------------------------------------------------
// Scalar specialization (W = 1)
// ---------------------------------------------------------------------------

template <> struct Mask<float, 1> {
  bool m{};
  Mask() = default;
  explicit Mask(bool b) : m(b) {}
  friend Mask operator&(Mask a, Mask b) { return Mask(a.m && b.m); }
  friend Mask operator|(Mask a, Mask b) { return Mask(a.m || b.m); }
  Mask operator!() const { return Mask(!m); }
  bool any() const { return m; }
  bool all() const { return m; }
  bool none() const { return !m; }
  bool lane(int) const { return m; }
};

template <> struct VecI32<1> {
  std::int32_t v{};
  VecI32() = default;
  explicit VecI32(std::int32_t x) : v(x) {}
  friend VecI32 operator+(VecI32 a, VecI32 b) { return VecI32(a.v + b.v); }
  friend VecI32 operator-(VecI32 a, VecI32 b) { return VecI32(a.v - b.v); }
  friend VecI32 operator&(VecI32 a, VecI32 b) { return VecI32(a.v & b.v); }
  friend VecI32 operator|(VecI32 a, VecI32 b) { return VecI32(a.v | b.v); }
  template <int S> VecI32 shl() const {
    return VecI32(static_cast<std::int32_t>(static_cast<std::uint32_t>(v) << S));
  }
  template <int S> VecI32 shr() const {
    return VecI32(static_cast<std::int32_t>(static_cast<std::uint32_t>(v) >> S));
  }
  std::int32_t lane(int) const { return v; }
};

template <> struct Vec<float, 1> {
  using value_type = float;
  using mask_type = Mask<float, 1>;
  using int_type = VecI32<1>;
  static constexpr int width = 1;

  float v{};

  Vec() = default;
  Vec(float x) : v(x) {}  // NOLINT: implicit broadcast

  static Vec load(const float* p) { return Vec(*p); }
  static Vec loadu(const float* p) { return Vec(*p); }
  void store(float* p) const { *p = v; }
  void storeu(float* p) const { *p = v; }
  void stream(float* p) const { *p = v; }
  float lane(int) const { return v; }

  friend Vec operator+(Vec a, Vec b) { return Vec(a.v + b.v); }
  friend Vec operator-(Vec a, Vec b) { return Vec(a.v - b.v); }
  friend Vec operator*(Vec a, Vec b) { return Vec(a.v * b.v); }
  friend Vec operator/(Vec a, Vec b) { return Vec(a.v / b.v); }
  Vec operator-() const { return Vec(-v); }

  friend mask_type operator<(Vec a, Vec b) { return mask_type(a.v < b.v); }
  friend mask_type operator<=(Vec a, Vec b) { return mask_type(a.v <= b.v); }
  friend mask_type operator>(Vec a, Vec b) { return mask_type(a.v > b.v); }
  friend mask_type operator>=(Vec a, Vec b) { return mask_type(a.v >= b.v); }
  friend mask_type operator==(Vec a, Vec b) { return mask_type(a.v == b.v); }
  friend mask_type operator!=(Vec a, Vec b) { return mask_type(a.v != b.v); }
};

inline Vec<float, 1> fmadd(Vec<float, 1> a, Vec<float, 1> b, Vec<float, 1> c) { return {std::fmaf(a.v, b.v, c.v)}; }
inline Vec<float, 1> fnmadd(Vec<float, 1> a, Vec<float, 1> b, Vec<float, 1> c) { return {std::fmaf(-a.v, b.v, c.v)}; }
// As the double lane: b when either operand is NaN or they compare equal.
inline Vec<float, 1> min(Vec<float, 1> a, Vec<float, 1> b) { return {a.v < b.v ? a.v : b.v}; }
inline Vec<float, 1> max(Vec<float, 1> a, Vec<float, 1> b) { return {a.v > b.v ? a.v : b.v}; }
inline Vec<float, 1> abs(Vec<float, 1> a) { return {std::fabs(a.v)}; }
inline Vec<float, 1> sqrt(Vec<float, 1> a) { return {std::sqrt(a.v)}; }
inline Vec<float, 1> round_nearest(Vec<float, 1> a) { return {std::nearbyintf(a.v)}; }
inline Vec<float, 1> select(Mask<float, 1> m, Vec<float, 1> a, Vec<float, 1> b) { return m.m ? a : b; }
inline VecI32<1> bitcast_to_int(Vec<float, 1> a) {
  std::int32_t i;
  std::memcpy(&i, &a.v, 4);
  return VecI32<1>(i);
}
inline Vec<float, 1> bitcast_to_float(VecI32<1> a) {
  float f;
  std::memcpy(&f, &a.v, 4);
  return {f};
}
inline VecI32<1> to_int32(Vec<float, 1> a) { return VecI32<1>(static_cast<std::int32_t>(std::lrintf(a.v))); }

// ---------------------------------------------------------------------------
// AVX2 specialization (W = 8)
// ---------------------------------------------------------------------------

template <> struct Mask<float, 8> {
  __m256 m{};
  Mask() = default;
  explicit Mask(__m256 x) : m(x) {}
  friend Mask operator&(Mask a, Mask b) { return Mask(_mm256_and_ps(a.m, b.m)); }
  friend Mask operator|(Mask a, Mask b) { return Mask(_mm256_or_ps(a.m, b.m)); }
  Mask operator!() const {
    return Mask(_mm256_xor_ps(m, _mm256_castsi256_ps(_mm256_set1_epi32(-1))));
  }
  int bits() const { return _mm256_movemask_ps(m); }
  bool any() const { return bits() != 0; }
  bool all() const { return bits() == 0xff; }
  bool none() const { return bits() == 0; }
  bool lane(int i) const { return (bits() >> i) & 1; }
};

template <> struct VecI32<8> {
  __m256i v{};
  VecI32() = default;
  explicit VecI32(__m256i x) : v(x) {}
  explicit VecI32(std::int32_t x) : v(_mm256_set1_epi32(x)) {}
  friend VecI32 operator+(VecI32 a, VecI32 b) { return VecI32(_mm256_add_epi32(a.v, b.v)); }
  friend VecI32 operator-(VecI32 a, VecI32 b) { return VecI32(_mm256_sub_epi32(a.v, b.v)); }
  friend VecI32 operator&(VecI32 a, VecI32 b) { return VecI32(_mm256_and_si256(a.v, b.v)); }
  friend VecI32 operator|(VecI32 a, VecI32 b) { return VecI32(_mm256_or_si256(a.v, b.v)); }
  template <int S> VecI32 shl() const { return VecI32(_mm256_slli_epi32(v, S)); }
  template <int S> VecI32 shr() const { return VecI32(_mm256_srli_epi32(v, S)); }
  std::int32_t lane(int i) const {
    alignas(32) std::int32_t t[8];
    _mm256_store_si256(reinterpret_cast<__m256i*>(t), v);
    return t[i];
  }
};

template <> struct Vec<float, 8> {
  using value_type = float;
  using mask_type = Mask<float, 8>;
  using int_type = VecI32<8>;
  static constexpr int width = 8;

  __m256 v{};

  Vec() = default;
  Vec(float x) : v(_mm256_set1_ps(x)) {}  // NOLINT: implicit broadcast
  explicit Vec(__m256 x) : v(x) {}

  static Vec load(const float* p) { return Vec(_mm256_load_ps(p)); }
  static Vec loadu(const float* p) { return Vec(_mm256_loadu_ps(p)); }
  void store(float* p) const { _mm256_store_ps(p, v); }
  void storeu(float* p) const { _mm256_storeu_ps(p, v); }
  void stream(float* p) const { _mm256_stream_ps(p, v); }
  float lane(int i) const {
    alignas(32) float t[8];
    store(t);
    return t[i];
  }

  friend Vec operator+(Vec a, Vec b) { return Vec(_mm256_add_ps(a.v, b.v)); }
  friend Vec operator-(Vec a, Vec b) { return Vec(_mm256_sub_ps(a.v, b.v)); }
  friend Vec operator*(Vec a, Vec b) { return Vec(_mm256_mul_ps(a.v, b.v)); }
  friend Vec operator/(Vec a, Vec b) { return Vec(_mm256_div_ps(a.v, b.v)); }
  Vec operator-() const { return Vec(_mm256_xor_ps(v, _mm256_set1_ps(-0.0f))); }

  friend mask_type operator<(Vec a, Vec b) { return mask_type(_mm256_cmp_ps(a.v, b.v, _CMP_LT_OQ)); }
  friend mask_type operator<=(Vec a, Vec b) { return mask_type(_mm256_cmp_ps(a.v, b.v, _CMP_LE_OQ)); }
  friend mask_type operator>(Vec a, Vec b) { return mask_type(_mm256_cmp_ps(a.v, b.v, _CMP_GT_OQ)); }
  friend mask_type operator>=(Vec a, Vec b) { return mask_type(_mm256_cmp_ps(a.v, b.v, _CMP_GE_OQ)); }
  friend mask_type operator==(Vec a, Vec b) { return mask_type(_mm256_cmp_ps(a.v, b.v, _CMP_EQ_OQ)); }
  friend mask_type operator!=(Vec a, Vec b) { return mask_type(_mm256_cmp_ps(a.v, b.v, _CMP_NEQ_UQ)); }
};

inline Vec<float, 8> fmadd(Vec<float, 8> a, Vec<float, 8> b, Vec<float, 8> c) { return Vec<float, 8>(_mm256_fmadd_ps(a.v, b.v, c.v)); }
inline Vec<float, 8> fnmadd(Vec<float, 8> a, Vec<float, 8> b, Vec<float, 8> c) { return Vec<float, 8>(_mm256_fnmadd_ps(a.v, b.v, c.v)); }
inline Vec<float, 8> min(Vec<float, 8> a, Vec<float, 8> b) { return Vec<float, 8>(_mm256_min_ps(a.v, b.v)); }
inline Vec<float, 8> max(Vec<float, 8> a, Vec<float, 8> b) { return Vec<float, 8>(_mm256_max_ps(a.v, b.v)); }
inline Vec<float, 8> abs(Vec<float, 8> a) { return Vec<float, 8>(_mm256_andnot_ps(_mm256_set1_ps(-0.0f), a.v)); }
inline Vec<float, 8> sqrt(Vec<float, 8> a) { return Vec<float, 8>(_mm256_sqrt_ps(a.v)); }
inline Vec<float, 8> round_nearest(Vec<float, 8> a) { return Vec<float, 8>(_mm256_round_ps(a.v, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC)); }
inline Vec<float, 8> select(Mask<float, 8> m, Vec<float, 8> a, Vec<float, 8> b) { return Vec<float, 8>(_mm256_blendv_ps(b.v, a.v, m.m)); }
inline VecI32<8> bitcast_to_int(Vec<float, 8> a) { return VecI32<8>(_mm256_castps_si256(a.v)); }
inline Vec<float, 8> bitcast_to_float(VecI32<8> a) { return Vec<float, 8>(_mm256_castsi256_ps(a.v)); }
inline VecI32<8> to_int32(Vec<float, 8> a) { return VecI32<8>(_mm256_cvtps_epi32(a.v)); }

#if defined(FINBENCH_HAVE_AVX512)
// ---------------------------------------------------------------------------
// AVX-512 specialization (W = 16)
// ---------------------------------------------------------------------------

template <> struct Mask<float, 16> {
  __mmask16 m{};
  Mask() = default;
  explicit Mask(__mmask16 x) : m(x) {}
  friend Mask operator&(Mask a, Mask b) { return Mask(static_cast<__mmask16>(a.m & b.m)); }
  friend Mask operator|(Mask a, Mask b) { return Mask(static_cast<__mmask16>(a.m | b.m)); }
  Mask operator!() const { return Mask(static_cast<__mmask16>(~m)); }
  bool any() const { return m != 0; }
  bool all() const { return m == 0xffff; }
  bool none() const { return m == 0; }
  bool lane(int i) const { return (m >> i) & 1; }
};

template <> struct VecI32<16> {
  __m512i v{};
  VecI32() = default;
  explicit VecI32(__m512i x) : v(x) {}
  explicit VecI32(std::int32_t x) : v(_mm512_set1_epi32(x)) {}
  friend VecI32 operator+(VecI32 a, VecI32 b) { return VecI32(_mm512_add_epi32(a.v, b.v)); }
  friend VecI32 operator-(VecI32 a, VecI32 b) { return VecI32(_mm512_sub_epi32(a.v, b.v)); }
  friend VecI32 operator&(VecI32 a, VecI32 b) { return VecI32(_mm512_and_si512(a.v, b.v)); }
  friend VecI32 operator|(VecI32 a, VecI32 b) { return VecI32(_mm512_or_si512(a.v, b.v)); }
  template <int S> VecI32 shl() const { return VecI32(_mm512_slli_epi32(v, S)); }
  template <int S> VecI32 shr() const { return VecI32(_mm512_srli_epi32(v, S)); }
  std::int32_t lane(int i) const {
    alignas(64) std::int32_t t[16];
    _mm512_store_si512(t, v);
    return t[i];
  }
};

template <> struct Vec<float, 16> {
  using value_type = float;
  using mask_type = Mask<float, 16>;
  using int_type = VecI32<16>;
  static constexpr int width = 16;

  __m512 v{};

  Vec() = default;
  Vec(float x) : v(_mm512_set1_ps(x)) {}  // NOLINT: implicit broadcast
  explicit Vec(__m512 x) : v(x) {}

  static Vec load(const float* p) { return Vec(_mm512_load_ps(p)); }
  static Vec loadu(const float* p) { return Vec(_mm512_loadu_ps(p)); }
  void store(float* p) const { _mm512_store_ps(p, v); }
  void storeu(float* p) const { _mm512_storeu_ps(p, v); }
  void stream(float* p) const { _mm512_stream_ps(p, v); }
  float lane(int i) const {
    alignas(64) float t[16];
    store(t);
    return t[i];
  }

  friend Vec operator+(Vec a, Vec b) { return Vec(_mm512_add_ps(a.v, b.v)); }
  friend Vec operator-(Vec a, Vec b) { return Vec(_mm512_sub_ps(a.v, b.v)); }
  friend Vec operator*(Vec a, Vec b) { return Vec(_mm512_mul_ps(a.v, b.v)); }
  friend Vec operator/(Vec a, Vec b) { return Vec(_mm512_div_ps(a.v, b.v)); }
  Vec operator-() const { return Vec(_mm512_xor_ps(v, _mm512_set1_ps(-0.0f))); }

  friend mask_type operator<(Vec a, Vec b) { return mask_type(_mm512_cmp_ps_mask(a.v, b.v, _CMP_LT_OQ)); }
  friend mask_type operator<=(Vec a, Vec b) { return mask_type(_mm512_cmp_ps_mask(a.v, b.v, _CMP_LE_OQ)); }
  friend mask_type operator>(Vec a, Vec b) { return mask_type(_mm512_cmp_ps_mask(a.v, b.v, _CMP_GT_OQ)); }
  friend mask_type operator>=(Vec a, Vec b) { return mask_type(_mm512_cmp_ps_mask(a.v, b.v, _CMP_GE_OQ)); }
  friend mask_type operator==(Vec a, Vec b) { return mask_type(_mm512_cmp_ps_mask(a.v, b.v, _CMP_EQ_OQ)); }
  friend mask_type operator!=(Vec a, Vec b) { return mask_type(_mm512_cmp_ps_mask(a.v, b.v, _CMP_NEQ_UQ)); }
};

inline Vec<float, 16> fmadd(Vec<float, 16> a, Vec<float, 16> b, Vec<float, 16> c) { return Vec<float, 16>(_mm512_fmadd_ps(a.v, b.v, c.v)); }
inline Vec<float, 16> fnmadd(Vec<float, 16> a, Vec<float, 16> b, Vec<float, 16> c) { return Vec<float, 16>(_mm512_fnmadd_ps(a.v, b.v, c.v)); }
inline Vec<float, 16> min(Vec<float, 16> a, Vec<float, 16> b) { return Vec<float, 16>(_mm512_min_ps(a.v, b.v)); }
inline Vec<float, 16> max(Vec<float, 16> a, Vec<float, 16> b) { return Vec<float, 16>(_mm512_max_ps(a.v, b.v)); }
inline Vec<float, 16> abs(Vec<float, 16> a) { return Vec<float, 16>(_mm512_abs_ps(a.v)); }
inline Vec<float, 16> sqrt(Vec<float, 16> a) { return Vec<float, 16>(_mm512_sqrt_ps(a.v)); }
inline Vec<float, 16> round_nearest(Vec<float, 16> a) { return Vec<float, 16>(_mm512_roundscale_ps(a.v, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC)); }
inline Vec<float, 16> select(Mask<float, 16> m, Vec<float, 16> a, Vec<float, 16> b) { return Vec<float, 16>(_mm512_mask_blend_ps(m.m, b.v, a.v)); }
inline VecI32<16> bitcast_to_int(Vec<float, 16> a) { return VecI32<16>(_mm512_castps_si512(a.v)); }
inline Vec<float, 16> bitcast_to_float(VecI32<16> a) { return Vec<float, 16>(_mm512_castsi512_ps(a.v)); }
inline VecI32<16> to_int32(Vec<float, 16> a) { return VecI32<16>(_mm512_cvtps_epi32(a.v)); }

#endif  // FINBENCH_HAVE_AVX512

inline Vec<float, 1> to_float(VecI32<1> a) { return {static_cast<float>(a.v)}; }
inline Vec<float, 8> to_float(VecI32<8> a) { return Vec<float, 8>(_mm256_cvtepi32_ps(a.v)); }
#if defined(FINBENCH_HAVE_AVX512)
inline Vec<float, 16> to_float(VecI32<16> a) { return Vec<float, 16>(_mm512_cvtepi32_ps(a.v)); }
#endif

// 2^n for integer-valued float n in [-126, 127].
template <class VF> inline VF pow2n_f(VF n) {
  using I = typename VF::int_type;
  I bits = (to_int32(n) + I(127)).template shl<23>();
  return bitcast_to_float(bits);
}

// frexp-style split: a = m * 2^e, m in [1, 2). Positive normal inputs.
template <class VF> inline void split_exponent_f(VF a, VF& m, VF& e) {
  using I = typename VF::int_type;
  I bits = bitcast_to_int(a);
  I exp_field = bits.template shr<23>() & I(0xff);
  e = to_float(exp_field - I(127));
  I mant = (bits & I(0x007fffff)) | I(0x3f800000);
  m = bitcast_to_float(mant);
}

}  // namespace finbench::simd
