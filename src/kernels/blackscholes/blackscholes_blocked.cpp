// Register-tiled Black–Scholes over the blocked AoSoA layout (paper
// Sec. IV-A3, Fig. 4 "Advanced"). Each lane-block stores its five fields
// as contiguous `block`-lane runs, so a register tile is nothing but
// aligned unit-stride loads — no gathers, unlike SIMD over AOS — and the
// whole working set of a tile (5 x block doubles) sits on a handful of
// cache lines. Tiles are processed in pairs (×2 unroll) so two
// independent exp/log/erf dependency chains are in flight per worker,
// hiding the polynomial latency, and outputs leave through streaming
// stores: the batch is written once and never read back, so there is no
// point pulling its lines into cache.
//
// The single-precision variants run the same tiles with twice the lanes:
// inputs convert f64->f32 in register (cvtpd_ps), the transcendentals run
// in SP, and results widen back on the streaming store — the storage
// stays double, so the SP speedup is measured against identical bytes in
// memory and the engine can negotiate/write back exactly as for DP.
//
// Lane-blocks are padded by replicating the final option (core::fill), so
// full-width tiles are always safe; padded lanes are computed redundantly
// and ignored by every reader.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <numeric>

#include <immintrin.h>

#include "finbench/core/analytic.hpp"
#include "finbench/kernels/blackscholes.hpp"
#include "finbench/obs/metrics.hpp"
#include "finbench/vecmath/vecmath.hpp"
#include "finbench/vecmath/vecmathf.hpp"
#include "../omp_split.hpp"

namespace finbench::kernels::bs {

namespace {

// --- Double precision ------------------------------------------------------

// The per-tile constants, broadcast once per kernel invocation.
template <int W>
struct DpConsts {
  using V = simd::Vec<double, W>;
  V r, q, sig, sig22, half, one, zero, inv_sqrt2;
  DpConsts(double rate, double vol, double dividend)
      : r(rate),
        q(dividend),
        sig(vol),
        sig22(vol * vol / 2),
        half(0.5),
        one(1.0),
        zero(0.0),
        inv_sqrt2(0.70710678118654752440) {}
};

// One register tile over five field runs at base, base + fs, ..., base +
// 4 fs (fs = the lane-block width). Stream=true writes outputs with
// non-temporal stores (the in-memory blocked batch is written once and
// never read back); the fused AOS path sets Stream=false because its tile
// buffer lives on the stack and is read back immediately. Returns the
// output probe c*0 + p*0: NaN in every lane whose call or put is not finite.
template <int W, bool HasDividend, bool Stream>
inline simd::Vec<double, W> dp_tile(const DpConsts<W>& k, double* base, std::size_t fs) {
  using V = simd::Vec<double, W>;
  const V S = V::load(base);
  const V K = V::load(base + fs);
  const V T = V::load(base + 2 * fs);
  const V qlog = vecmath::log(S / K);
  const V denom = k.one / (k.sig * sqrt(T));
  V drift = k.r;
  V sq = S;
  if constexpr (HasDividend) {
    drift = k.r - k.q;
    sq = S * vecmath::exp(-k.q * T);
  }
  const V d1 = (qlog + (drift + k.sig22) * T) * denom;
  const V d2 = (qlog + (drift - k.sig22) * T) * denom;
  const V xexp = K * vecmath::exp(-k.r * T);
  const V nd1 = fmadd(vecmath::erf(d1 * k.inv_sqrt2), k.half, k.half);
  const V nd2 = fmadd(vecmath::erf(d2 * k.inv_sqrt2), k.half, k.half);
  const V c = fmsub(sq, nd1, xexp * nd2);
  const V put = c - sq + xexp;  // put via call/put parity
  if constexpr (Stream) {
    c.stream(base + 3 * fs);
    put.stream(base + 4 * fs);
  } else {
    c.store(base + 3 * fs);
    put.store(base + 4 * fs);
  }
  return c * k.zero + put * k.zero;
}

// Lane-blocks [b0, b1) of the batch, each priced whole (the padded lanes
// of the last block too). Returns whether every output is finite, from a
// probe accumulated in registers.
template <int W, bool HasDividend>
bool price_blocked_range(const core::BsBlockedView& batch, std::size_t b0, std::size_t b1) {
  using V = simd::Vec<double, W>;
  const DpConsts<W> k(batch.rate, batch.vol, batch.dividend);
  const std::size_t bw = static_cast<std::size_t>(batch.block);
  const std::size_t stride = 5 * bw;
  double* const data = batch.data.data();

  // When a tile covers a whole block, fs is the compile-time W and every
  // address is base + constant — the same addressing the SOA kernel enjoys.
  V probe(0.0);
  auto tile = [&](double* base, std::size_t fs) {
    probe = probe + dp_tile<W, HasDividend, /*Stream=*/true>(k, base, fs);
  };

  // x2 unroll: when a tile covers a whole block, pair adjacent blocks;
  // otherwise pair the sub-runs inside each block. Either way two
  // independent transcendental chains are in flight and the indexing is
  // pure pointer increments (no per-tile division).
  if (static_cast<std::size_t>(W) == bw) {
    std::size_t b = b0;
    for (; b + 2 <= b1; b += 2) {
      tile(data + b * stride, W);
      tile(data + (b + 1) * stride, W);
    }
    if (b < b1) tile(data + b * stride, W);
  } else {
    for (std::size_t b = b0; b < b1; ++b) {
      double* const base = data + b * stride;
      std::size_t off = 0;
      for (; off + 2 * W <= bw; off += 2 * W) {
        tile(base + off, bw);
        tile(base + off + W, bw);
      }
      for (; off < bw; off += W) tile(base + off, bw);
    }
  }
  _mm_sfence();  // streamed outputs visible before the caller reads them
  return std::isfinite(simd::hsum(probe));
}

template <int W>
bool price_blocked_dispatch(const core::BsBlockedView& batch, std::size_t b0, std::size_t b1) {
  // A register tile must cover whole lanes of a block; an exotic block
  // size that W does not divide falls back to the scalar tiling, which
  // divides everything.
  if (batch.block % W != 0) {
    if (batch.dividend != 0.0) return price_blocked_range<1, true>(batch, b0, b1);
    return price_blocked_range<1, false>(batch, b0, b1);
  }
  if (batch.dividend != 0.0) return price_blocked_range<W, true>(batch, b0, b1);
  return price_blocked_range<W, false>(batch, b0, b1);
}

// The lane-blocks holding options [begin, end).
std::size_t first_block(const core::BsBlockedView& batch, std::size_t begin) {
  return begin / static_cast<std::size_t>(batch.block);
}
std::size_t end_block(const core::BsBlockedView& batch, std::size_t end) {
  const std::size_t bw = static_cast<std::size_t>(batch.block);
  return (end + bw - 1) / bw;
}

// The exhibit entries' split: interior boundaries on a multiple of 16 and
// of the block width, so every range starts on a block that every other
// split also starts a tile pair on.
template <class Body>
void omp_split_blocks(const core::BsBlockedView& batch, Body body) {
  omp_split(static_cast<std::ptrdiff_t>(batch.size()),
            [&](std::ptrdiff_t b, std::ptrdiff_t e) {
              body(first_block(batch, static_cast<std::size_t>(b)),
                   end_block(batch, static_cast<std::size_t>(e)));
            },
            std::lcm(kRangeAlign, static_cast<std::ptrdiff_t>(batch.block)));
}

// --- Fused AOS -> blocked -> AOS pipeline ----------------------------------
//
// The separate convert / price / write-back passes each cross DRAM; the
// point of the AoSoA layout is that conversion composes with tiling, so
// this path does all three block-locally: transpose W options into a
// stack-resident tile (L1-hot), price it in register, and copy the two
// output lanes straight back into the caller's AOS records. The AOS array
// is read once and its output fields written once — no blocked array ever
// exists in DRAM.

template <int W, bool HasDividend>
void price_from_aos_width(const core::BsAosView& batch) {
  const DpConsts<W> k(batch.rate, batch.vol, batch.dividend);
  core::BsOptionAos* const o = batch.options.data();
  const std::size_t n = batch.size();
  const std::ptrdiff_t nfull = static_cast<std::ptrdiff_t>(n / W);

  // Two blocks per iteration (same x2 unroll as the in-memory kernel):
  // the second tile's transpose overlaps the first tile's transcendentals.
  const std::ptrdiff_t npairs = nfull / 2;
#pragma omp parallel for schedule(static)
  for (std::ptrdiff_t p = 0; p < npairs; ++p) {
    alignas(64) double buf[2][5 * W];
    core::BsOptionAos* const x = o + static_cast<std::size_t>(2 * p) * W;
    for (int half = 0; half < 2; ++half) {
      core::BsOptionAos* const xi = x + half * W;
      for (int ln = 0; ln < W; ++ln) {
        buf[half][ln] = xi[ln].spot;
        buf[half][W + ln] = xi[ln].strike;
        buf[half][2 * W + ln] = xi[ln].years;
      }
    }
    dp_tile<W, HasDividend, /*Stream=*/false>(k, buf[0], W);
    dp_tile<W, HasDividend, /*Stream=*/false>(k, buf[1], W);
    for (int half = 0; half < 2; ++half) {
      core::BsOptionAos* const xi = x + half * W;
      for (int ln = 0; ln < W; ++ln) {
        xi[ln].call = buf[half][3 * W + ln];
        xi[ln].put = buf[half][4 * W + ln];
      }
    }
  }
  // Odd full block, then the sub-W tail via the scalar closed form.
  if (nfull % 2 != 0) {
    alignas(64) double buf[5 * W];
    core::BsOptionAos* const x = o + static_cast<std::size_t>(nfull - 1) * W;
    for (int ln = 0; ln < W; ++ln) {
      buf[ln] = x[ln].spot;
      buf[W + ln] = x[ln].strike;
      buf[2 * W + ln] = x[ln].years;
    }
    dp_tile<W, HasDividend, /*Stream=*/false>(k, buf, W);
    for (int ln = 0; ln < W; ++ln) {
      x[ln].call = buf[3 * W + ln];
      x[ln].put = buf[4 * W + ln];
    }
  }
  for (std::size_t i = static_cast<std::size_t>(nfull) * W; i < n; ++i) {
    const core::BsPrice pr =
        core::black_scholes(o[i].spot, o[i].strike, o[i].years, batch.rate, batch.vol,
                            batch.dividend);
    o[i].call = pr.call;
    o[i].put = pr.put;
  }
}

template <int W>
void price_from_aos_dispatch(const core::BsAosView& batch) {
  if (batch.dividend != 0.0) price_from_aos_width<W, true>(batch);
  else price_from_aos_width<W, false>(batch);
}

// --- Single precision over the same blocked doubles ------------------------

// One 8-lane field run: 8 doubles in, Vec<float, 8> out.
inline simd::Vec<float, 8> load_f32_8(const double* p) {
#if defined(FINBENCH_HAVE_AVX512)
  return simd::Vec<float, 8>(_mm512_cvtpd_ps(_mm512_load_pd(p)));
#else
  const __m128 lo = _mm256_cvtpd_ps(_mm256_load_pd(p));
  const __m128 hi = _mm256_cvtpd_ps(_mm256_load_pd(p + 4));
  return simd::Vec<float, 8>(_mm256_set_m128(hi, lo));
#endif
}

inline void stream_f64_8(double* p, simd::Vec<float, 8> x) {
#if defined(FINBENCH_HAVE_AVX512)
  _mm512_stream_pd(p, _mm512_cvtps_pd(x.v));
#else
  _mm256_stream_pd(p, _mm256_cvtps_pd(_mm256_castps256_ps128(x.v)));
  _mm256_stream_pd(p + 4, _mm256_cvtps_pd(_mm256_extractf128_ps(x.v, 1)));
#endif
}

// Plain-store twin of stream_f64_8 for the fused AOS path, whose tile
// buffer lives on the stack and is read straight back (a non-temporal
// store there would only evict its own line).
inline void store_f64_8(double* p, simd::Vec<float, 8> x) {
#if defined(FINBENCH_HAVE_AVX512)
  _mm512_store_pd(p, _mm512_cvtps_pd(x.v));
#else
  _mm256_store_pd(p, _mm256_cvtps_pd(_mm256_castps256_ps128(x.v)));
  _mm256_store_pd(p + 4, _mm256_cvtps_pd(_mm256_extractf128_ps(x.v, 1)));
#endif
}

#if defined(FINBENCH_HAVE_AVX512)
// Two 8-lane field runs fused into one 16-float vector (and back).
inline simd::Vec<float, 16> load_f32_16(const double* a, const double* b) {
  const __m256 lo = _mm512_cvtpd_ps(_mm512_load_pd(a));
  const __m256 hi = _mm512_cvtpd_ps(_mm512_load_pd(b));
  return simd::Vec<float, 16>(_mm512_insertf32x8(_mm512_castps256_ps512(lo), hi, 1));
}

inline void stream_f64_16(double* a, double* b, simd::Vec<float, 16> x) {
  _mm512_stream_pd(a, _mm512_cvtps_pd(_mm512_castps512_ps256(x.v)));
  _mm512_stream_pd(b, _mm512_cvtps_pd(_mm512_extractf32x8_ps(x.v, 1)));
}

inline void store_f64_16(double* a, double* b, simd::Vec<float, 16> x) {
  _mm512_store_pd(a, _mm512_cvtps_pd(_mm512_castps512_ps256(x.v)));
  _mm512_store_pd(b, _mm512_cvtps_pd(_mm512_extractf32x8_ps(x.v, 1)));
}
#endif

template <class VF>
struct SpOut {
  VF call, put;
};

// The SP model shared by every width: same algebra as the DP tile, with
// cnd via the SP erf polynomial (~1.5e-7 abs; Fig. 4's SP rows trade this
// for twice the lanes).
template <class VF>
inline SpOut<VF> sp_tile(VF S, VF K, VF T, float rate, float vol, float div) {
  const VF r(rate);
  const VF sig22(vol * vol / 2);
  const VF one(1.0f);
  const VF qlog = vecmath::logf(S / K);
  const VF denom = one / (VF(vol) * sqrt(T));
  VF drift = r;
  VF sq = S;
  if (div != 0.0f) {
    drift = VF(rate - div);
    sq = S * vecmath::expf(VF(-div) * T);
  }
  const VF d1 = (qlog + (drift + sig22) * T) * denom;
  const VF d2 = (qlog + (drift - sig22) * T) * denom;
  const VF xexp = K * vecmath::expf(-r * T);
  const VF c = sq * vecmath::cndf(d1) - xexp * vecmath::cndf(d2);
  return {c, c - sq + xexp};
}

// Whether every lane of an SP probe is finite.
template <class VF>
bool probe_finite(VF probe) {
  float lanes[VF::width];
  probe.storeu(lanes);
  float sum = 0.0f;
  for (float x : lanes) sum += x;
  return std::isfinite(sum);
}

// Fallback for block sizes the 8-lane converters cannot tile: scalar SP
// per lane (still the SP model, so tolerances match the vector paths).
bool price_blocked_sp_scalar(const core::BsBlockedView& batch, std::size_t b0,
                             std::size_t b1) {
  using V1 = simd::Vec<float, 1>;
  const float rate = static_cast<float>(batch.rate);
  const float vol = static_cast<float>(batch.vol);
  const float div = static_cast<float>(batch.dividend);
  const std::size_t b = static_cast<std::size_t>(batch.block);
  const std::size_t end = std::min(batch.size(), b1 * b);
  float probe = 0.0f;
  for (std::size_t i = b0 * b; i < end; ++i) {
    const std::size_t blk = i / b;
    const std::size_t ln = i % b;
    const V1 s(static_cast<float>(batch.field(blk, 0)[ln]));
    const V1 k(static_cast<float>(batch.field(blk, 1)[ln]));
    const V1 t(static_cast<float>(batch.field(blk, 2)[ln]));
    const SpOut<V1> o = sp_tile(s, k, t, rate, vol, div);
    batch.field(blk, 3)[ln] = static_cast<double>(o.call.v);
    batch.field(blk, 4)[ln] = static_cast<double>(o.put.v);
    probe += o.call.v * 0.0f + o.put.v * 0.0f;
  }
  return std::isfinite(probe);
}

// 8 SP lanes per tile: one 8-lane sub-run of a block per register tile.
bool price_blocked_sp8(const core::BsBlockedView& batch, std::size_t b0, std::size_t b1) {
  using VF = simd::Vec<float, 8>;
  const float rate = static_cast<float>(batch.rate);
  const float vol = static_cast<float>(batch.vol);
  const float div = static_cast<float>(batch.dividend);
  const std::size_t bw = static_cast<std::size_t>(batch.block);
  const VF zero(0.0f);
  VF probe(0.0f);

  auto tile = [&](std::size_t blk, std::size_t off) {
    const VF S = load_f32_8(batch.field(blk, 0) + off);
    const VF K = load_f32_8(batch.field(blk, 1) + off);
    const VF T = load_f32_8(batch.field(blk, 2) + off);
    const SpOut<VF> o = sp_tile(S, K, T, rate, vol, div);
    stream_f64_8(batch.field(blk, 3) + off, o.call);
    stream_f64_8(batch.field(blk, 4) + off, o.put);
    probe = probe + (o.call * zero + o.put * zero);
  };

  // Same pairing scheme as the DP tiles: adjacent blocks when a tile is a
  // whole block, sub-runs within a block otherwise — increment-only indexing.
  if (bw == 8) {
    std::size_t b = b0;
    for (; b + 2 <= b1; b += 2) {
      tile(b, 0);
      tile(b + 1, 0);
    }
    if (b < b1) tile(b, 0);
  } else {
    for (std::size_t blk = b0; blk < b1; ++blk) {
      std::size_t off = 0;
      for (; off + 16 <= bw; off += 16) {
        tile(blk, off);
        tile(blk, off + 8);
      }
      for (; off < bw; off += 8) tile(blk, off);
    }
  }
  _mm_sfence();
  return probe_finite(probe);
}

#if defined(FINBENCH_HAVE_AVX512)
// 16 SP lanes per tile: two 8-lane sub-runs fused per register tile.
bool price_blocked_sp16(const core::BsBlockedView& batch, std::size_t b0, std::size_t b1) {
  using VF = simd::Vec<float, 16>;
  using V8 = simd::Vec<float, 8>;
  const float rate = static_cast<float>(batch.rate);
  const float vol = static_cast<float>(batch.vol);
  const float div = static_cast<float>(batch.dividend);
  const std::size_t bw = static_cast<std::size_t>(batch.block);
  const VF zero(0.0f);
  const V8 zero8(0.0f);
  VF probe(0.0f);
  V8 probe8(0.0f);

  // A 16-float tile fuses two 8-double field runs (lo/hi halves).
  auto tile16 = [&](std::size_t blk_lo, std::size_t off_lo, std::size_t blk_hi,
                    std::size_t off_hi) {
    const VF S = load_f32_16(batch.field(blk_lo, 0) + off_lo, batch.field(blk_hi, 0) + off_hi);
    const VF K = load_f32_16(batch.field(blk_lo, 1) + off_lo, batch.field(blk_hi, 1) + off_hi);
    const VF T = load_f32_16(batch.field(blk_lo, 2) + off_lo, batch.field(blk_hi, 2) + off_hi);
    const SpOut<VF> o = sp_tile(S, K, T, rate, vol, div);
    stream_f64_16(batch.field(blk_lo, 3) + off_lo, batch.field(blk_hi, 3) + off_hi, o.call);
    stream_f64_16(batch.field(blk_lo, 4) + off_lo, batch.field(blk_hi, 4) + off_hi, o.put);
    probe = probe + (o.call * zero + o.put * zero);
  };
  auto tile8 = [&](std::size_t blk, std::size_t off) {
    const V8 S = load_f32_8(batch.field(blk, 0) + off);
    const V8 K = load_f32_8(batch.field(blk, 1) + off);
    const V8 T = load_f32_8(batch.field(blk, 2) + off);
    const SpOut<V8> o = sp_tile(S, K, T, rate, vol, div);
    stream_f64_8(batch.field(blk, 3) + off, o.call);
    stream_f64_8(batch.field(blk, 4) + off, o.put);
    probe8 = probe8 + (o.call * zero8 + o.put * zero8);
  };

  if (bw == 8) {
    // A 16-lane tile spans two adjacent blocks; an odd trailing block
    // finishes 8-wide.
    std::size_t b = b0;
    for (; b + 2 <= b1; b += 2) tile16(b, 0, b + 1, 0);
    if (b < b1) tile8(b, 0);
  } else {
    for (std::size_t blk = b0; blk < b1; ++blk) {
      std::size_t off = 0;
      for (; off + 16 <= bw; off += 16) tile16(blk, off, blk, off + 8);
      for (; off < bw; off += 8) tile8(blk, off);
    }
  }
  _mm_sfence();
  return probe_finite(probe) && probe_finite(probe8);
}
#endif

bool price_blocked_sp_blocks(const core::BsBlockedView& batch, std::size_t b0, std::size_t b1,
                             WidthF w) {
  if (batch.block % 8 != 0) return price_blocked_sp_scalar(batch, b0, b1);
  switch (w) {
    case WidthF::kScalar: return price_blocked_sp_scalar(batch, b0, b1);
    case WidthF::kAvx2: return price_blocked_sp8(batch, b0, b1);
#if defined(FINBENCH_HAVE_AVX512)
    case WidthF::kAvx512:
    case WidthF::kAuto: return price_blocked_sp16(batch, b0, b1);
#else
    case WidthF::kAvx512:
    case WidthF::kAuto: return price_blocked_sp8(batch, b0, b1);
#endif
  }
  return false;
}

// --- Fused AOS -> f32 register tile pipeline --------------------------------
//
// The SP twin of price_from_aos_width: transpose W options' inputs into
// aligned stack runs of doubles (L1-hot), narrow f64->f32 in register with
// the same cvtpd_ps converters the in-memory SP kernel uses, price through
// the shared sp_tile model, and widen the two outputs back into the
// caller's AOS records. Same "incl. conversion" accounting as the DP fused
// path — the AOS array is read once and written once, no blocked array
// ever exists in DRAM — but with twice the lanes per tile, which is what
// extends Fig. 4's fused-pipeline win to the 16-lane SP rows.

// Width-specific converter glue: one tile's field run in / out.
template <int W>
struct SpAosIo;

template <>
struct SpAosIo<8> {
  static simd::Vec<float, 8> in(const double* p) { return load_f32_8(p); }
  static void out(double* p, simd::Vec<float, 8> x) { store_f64_8(p, x); }
};

#if defined(FINBENCH_HAVE_AVX512)
template <>
struct SpAosIo<16> {
  static simd::Vec<float, 16> in(const double* p) { return load_f32_16(p, p + 8); }
  static void out(double* p, simd::Vec<float, 16> x) { store_f64_16(p, p + 8, x); }
};
#endif

// Returns the probe c*0 + p*0 summed over the range: NaN unless every
// output is finite.
float price_from_aos_sp_scalar(core::BsOptionAos* o, std::size_t begin, std::size_t end,
                               float rate, float vol, float div) {
  using V1 = simd::Vec<float, 1>;
  float probe = 0.0f;
  for (std::size_t i = begin; i < end; ++i) {
    const SpOut<V1> r = sp_tile(V1(static_cast<float>(o[i].spot)),
                                V1(static_cast<float>(o[i].strike)),
                                V1(static_cast<float>(o[i].years)), rate, vol, div);
    o[i].call = static_cast<double>(r.call.v);
    o[i].put = static_cast<double>(r.put.v);
    probe += r.call.v * 0.0f + r.put.v * 0.0f;
  }
  return probe;
}

// Options [begin, end): W-option tiles from `begin`, then the sub-W tail.
// With 16-aligned range boundaries each option meets the same tile lane as
// in any other split. Returns whether every output is finite, from a probe
// accumulated in registers.
template <int W>
bool price_from_aos_sp_range(const core::BsAosView& batch, std::size_t begin,
                             std::size_t end) {
  using VF = simd::Vec<float, W>;
  const float rate = static_cast<float>(batch.rate);
  const float vol = static_cast<float>(batch.vol);
  const float div = static_cast<float>(batch.dividend);
  core::BsOptionAos* const o = batch.options.data() + begin;
  const std::size_t n = end - begin;
  const std::size_t nfull = n / W;
  const VF zero(0.0f);
  VF probe(0.0f);

  auto tile = [&](core::BsOptionAos* x) {
    alignas(64) double buf[5][W];
    for (int ln = 0; ln < W; ++ln) {
      buf[0][ln] = x[ln].spot;
      buf[1][ln] = x[ln].strike;
      buf[2][ln] = x[ln].years;
    }
    const SpOut<VF> r = sp_tile(SpAosIo<W>::in(buf[0]), SpAosIo<W>::in(buf[1]),
                                SpAosIo<W>::in(buf[2]), rate, vol, div);
    SpAosIo<W>::out(buf[3], r.call);
    SpAosIo<W>::out(buf[4], r.put);
    for (int ln = 0; ln < W; ++ln) {
      x[ln].call = buf[3][ln];
      x[ln].put = buf[4][ln];
    }
    probe = probe + (r.call * zero + r.put * zero);
  };

  // x2 unroll, as in the DP fused path: the second tile's transpose
  // overlaps the first tile's transcendentals.
  std::size_t t = 0;
  for (; t + 2 <= nfull; t += 2) {
    tile(o + t * W);
    tile(o + (t + 1) * W);
  }
  if (t < nfull) tile(o + t * W);

  // Sub-W tail: scalar lanes of the same SP model, so the whole batch
  // shares one tolerance.
  float lanes[W];
  probe.storeu(lanes);
  float sum = price_from_aos_sp_scalar(o, nfull * W, n, rate, vol, div);
  for (float x : lanes) sum += x;
  return std::isfinite(sum);
}

bool price_from_aos_sp(const core::BsAosView& batch, std::size_t begin, std::size_t end,
                       WidthF w) {
  switch (w) {
    case WidthF::kScalar:
      return std::isfinite(price_from_aos_sp_scalar(
          batch.options.data(), begin, end, static_cast<float>(batch.rate),
          static_cast<float>(batch.vol), static_cast<float>(batch.dividend)));
    case WidthF::kAvx2: return price_from_aos_sp_range<8>(batch, begin, end);
#if defined(FINBENCH_HAVE_AVX512)
    case WidthF::kAvx512:
    case WidthF::kAuto: return price_from_aos_sp_range<16>(batch, begin, end);
#else
    case WidthF::kAvx512:
    case WidthF::kAuto: return price_from_aos_sp_range<8>(batch, begin, end);
#endif
  }
  return false;
}

}  // namespace

void price_blocked(core::BsBlockedView batch, Width w) {
  static obs::Counter& priced = obs::counter("bs.options_priced");
  priced.add(batch.size());
  omp_split_blocks(batch, [&](std::size_t b0, std::size_t b1) {
    vecmath::with_width(w, [&]<int W>() { price_blocked_dispatch<W>(batch, b0, b1); });
  });
}

bool price_blocked(core::BsBlockedView batch, std::size_t begin, std::size_t end, Width w) {
  static obs::Counter& priced = obs::counter("bs.options_priced");
  priced.add(end - begin);
  return vecmath::with_width(w, [&]<int W>() {
    return price_blocked_dispatch<W>(batch, first_block(batch, begin), end_block(batch, end));
  });
}

void price_blocked_from_aos(core::BsAosView batch, Width w) {
  static obs::Counter& priced = obs::counter("bs.options_priced");
  priced.add(batch.size());
  vecmath::with_width(w, [&]<int W>() { price_from_aos_dispatch<W>(batch); });
}

void price_blocked_from_aos_f32(core::BsAosView batch, WidthF w) {
  static obs::Counter& priced = obs::counter("bs.options_priced");
  priced.add(batch.size());
  omp_split(static_cast<std::ptrdiff_t>(batch.size()), [&](std::ptrdiff_t b, std::ptrdiff_t e) {
    price_from_aos_sp(batch, static_cast<std::size_t>(b), static_cast<std::size_t>(e), w);
  });
}

bool price_blocked_from_aos_f32(core::BsAosView batch, std::size_t begin, std::size_t end,
                                WidthF w) {
  static obs::Counter& priced = obs::counter("bs.options_priced");
  priced.add(end - begin);
  return price_from_aos_sp(batch, begin, end, w);
}

void price_blocked_sp(core::BsBlockedView batch, WidthF w) {
  static obs::Counter& priced = obs::counter("bs.options_priced");
  priced.add(batch.size());
  omp_split_blocks(batch, [&](std::size_t b0, std::size_t b1) {
    price_blocked_sp_blocks(batch, b0, b1, w);
  });
}

bool price_blocked_sp(core::BsBlockedView batch, std::size_t begin, std::size_t end,
                      WidthF w) {
  static obs::Counter& priced = obs::counter("bs.options_priced");
  priced.add(end - begin);
  return price_blocked_sp_blocks(batch, first_block(batch, begin), end_block(batch, end), w);
}

}  // namespace finbench::kernels::bs
