#include "finbench/kernels/brownian.hpp"

#include <cassert>
#include <cmath>
#include <stdexcept>

#include "finbench/core/scratch_pool.hpp"
#include "finbench/vecmath/vecmath.hpp"
#include "../omp_split.hpp"

namespace finbench::kernels::brownian {

// --- Schedule ---------------------------------------------------------------

BridgeSchedule BridgeSchedule::uniform(int depth, double total_time) {
  std::vector<double> times(std::size_t(1ULL << depth) + 1);
  const double dt = total_time / static_cast<double>(times.size() - 1);
  for (std::size_t i = 0; i < times.size(); ++i) times[i] = dt * static_cast<double>(i);
  return from_times(times);
}

BridgeSchedule BridgeSchedule::from_times(std::span<const double> times) {
  BridgeSchedule s;
  const std::size_t n = times.size();
  if (n < 2 || ((n - 1) & (n - 2)) != 0) {
    throw std::invalid_argument("BridgeSchedule: need 2^depth + 1 time points");
  }
  int depth = 0;
  while ((std::size_t{1} << depth) + 1 < n) ++depth;
  s.depth_ = depth;
  s.times_.assign(times.begin(), times.end());
  s.terminal_sig_ = std::sqrt(times[n - 1] - times[0]);

  const std::size_t total = (std::size_t{1} << depth) - 1;
  s.w_l_.resize(total);
  s.w_r_.resize(total);
  s.sig_.resize(total);
  for (int d = 0; d < depth; ++d) {
    const std::size_t stride = (n - 1) >> d;
    for (std::size_t c = 0; c < (std::size_t{1} << d); ++c) {
      const double tl = times[c * stride];
      const double tm = times[c * stride + stride / 2];
      const double tr = times[(c + 1) * stride];
      const std::size_t k = offset(d) + c;
      s.w_l_[k] = (tr - tm) / (tr - tl);
      s.w_r_[k] = (tm - tl) / (tr - tl);
      s.sig_[k] = std::sqrt((tm - tl) * (tr - tm) / (tr - tl));
    }
  }
  return s;
}

arch::AlignedVector<double> lane_block_normals(std::span<const double> z, std::size_t nsim,
                                               std::size_t per_path, int width) {
  assert(z.size() >= nsim * per_path);
  arch::AlignedVector<double> out(nsim * per_path);
  const std::size_t w = static_cast<std::size_t>(width);
  const std::size_t groups = nsim / w;
  for (std::size_t g = 0; g < groups; ++g) {
    for (std::size_t l = 0; l < w; ++l) {
      const std::size_t s = g * w + l;
      for (std::size_t i = 0; i < per_path; ++i) {
        out[g * per_path * w + i * w + l] = z[s * per_path + i];
      }
    }
  }
  // Tail paths keep per-path layout.
  for (std::size_t s = groups * w; s < nsim; ++s) {
    for (std::size_t i = 0; i < per_path; ++i) {
      out[s * per_path + i] = z[s * per_path + i];
    }
  }
  return out;
}

// --- Scalar construction (Lis. 4) -------------------------------------------

namespace {

// Build one path into `scratch` (num_points doubles); z points at this
// path's normals_per_path() normals.
void build_one(const BridgeSchedule& sched, const double* z, double* scratch, double* scratch2) {
  const int depth = sched.depth();
  std::size_t zi = 0;
  double* src = scratch;
  double* dst = scratch2;
  src[0] = 0.0;
  src[1] = z[zi++] * sched.terminal_sig();
  for (int d = 0; d < depth; ++d) {
    const double* wl = sched.w_l(d);
    const double* wr = sched.w_r(d);
    const double* sg = sched.sig(d);
    dst[0] = src[0];
    for (std::size_t c = 0; c < (std::size_t{1} << d); ++c) {
      dst[2 * c + 1] = src[c] * wl[c] + src[c + 1] * wr[c] + sg[c] * z[zi++];
      dst[2 * c + 2] = src[c + 1];
    }
    std::swap(src, dst);
  }
  if (src != scratch) {
    for (std::size_t c = 0; c < sched.num_points(); ++c) scratch[c] = src[c];
  }
}

// Paths [begin, end), one at a time, through the ping-pong buffers a/b.
void build_paths(const BridgeSchedule& sched, const double* z, std::size_t nsim, double* out,
                 std::size_t begin, std::size_t end, double* a, double* b) {
  const std::size_t np = sched.num_points();
  const std::size_t zn = sched.normals_per_path();
  for (std::size_t s = begin; s < end; ++s) {
    build_one(sched, z + s * zn, a, b);
    for (std::size_t c = 0; c < np; ++c) out[c * nsim + s] = a[c];
  }
}

}  // namespace

void construct_reference(const BridgeSchedule& sched, std::span<const double> z,
                         std::size_t nsim, std::span<double> out) {
  construct_reference(sched, z, nsim, out, 0, nsim, nullptr);
}

void construct_reference(const BridgeSchedule& sched, std::span<const double> z,
                         std::size_t nsim, std::span<double> out, std::size_t begin,
                         std::size_t end, core::ScratchPool* scratch) {
  const std::size_t np = sched.num_points();
  assert(z.size() >= nsim * sched.normals_per_path() && out.size() >= nsim * np);
  core::ScratchBuf buf(scratch, 2 * np);
  build_paths(sched, z.data(), nsim, out.data(), begin, end, buf.data, buf.data + np);
}

void construct_basic(const BridgeSchedule& sched, std::span<const double> z, std::size_t nsim,
                     std::span<double> out) {
  omp_split(static_cast<std::ptrdiff_t>(nsim), [&](std::ptrdiff_t b, std::ptrdiff_t e) {
    construct_reference(sched, z, nsim, out, static_cast<std::size_t>(b),
                        static_cast<std::size_t>(e), nullptr);
  });
}

// --- SIMD across paths -------------------------------------------------------

namespace {

// Build W paths at once from this group's lane-blocked normals z, through
// the ping-pong buffers vsrc/vdst; returns the one holding the paths
// ([point][lane]).
template <int W>
const double* bridge_group(const BridgeSchedule& sched, const double* z, double* vsrc,
                           double* vdst) {
  using V = simd::Vec<double, W>;
  const int depth = sched.depth();
  std::size_t zi = 0;

  double* src = vsrc;
  double* dst = vdst;
  V(0.0).store(src);
  (V::load(z + (zi++) * W) * V(sched.terminal_sig())).store(src + W);

  for (int d = 0; d < depth; ++d) {
    const double* wl = sched.w_l(d);
    const double* wr = sched.w_r(d);
    const double* sg = sched.sig(d);
    V::load(src).store(dst);
    for (std::size_t c = 0; c < (std::size_t{1} << d); ++c) {
      const V left = V::load(src + c * W);
      const V right = V::load(src + (c + 1) * W);
      const V zv = V::load(z + (zi++) * W);
      const V mid = fmadd(left, V(wl[c]), fmadd(right, V(wr[c]), V(sg[c]) * zv));
      mid.store(dst + (2 * c + 1) * W);
      right.store(dst + (2 * c + 2) * W);
    }
    std::swap(src, dst);
  }
  return src;
}

// Paths [begin, end): full lane groups from `begin`, then the batch's
// ragged tail (its normals kept per-path layout) when the range holds it.
template <int W>
void construct_simd(const BridgeSchedule& sched, std::span<const double> z, std::size_t nsim,
                    std::span<double> out, std::size_t begin, std::size_t end,
                    core::ScratchPool* scratch) {
  const std::size_t np = sched.num_points();
  const std::size_t zn = sched.normals_per_path();
  const std::size_t full = nsim / W * W;
  core::ScratchBuf buf(scratch, 2 * np * W);
  double* const a = buf.data;
  double* const b = buf.data + np * W;
  std::size_t s = begin;
  for (; s + W <= std::min(end, full); s += W) {
    // Out columns are contiguous (point-major layout): full-width stores.
    const double* path = bridge_group<W>(sched, z.data() + s * zn, a, b);
    for (std::size_t c = 0; c < np; ++c) {
      simd::Vec<double, W>::load(path + c * W).storeu(out.data() + c * nsim + s);
    }
  }
  build_paths(sched, z.data(), nsim, out.data(), s, end, a, b);
}

// Interleaved generation over paths [begin, end): per group of W paths,
// generate the zn*W normals into a cache-resident buffer and consume
// immediately. Each group gets an independent Philox stream keyed by its
// index, so the construction is reproducible regardless of the split.
template <int W, class Consume>
void run_interleaved(const BridgeSchedule& sched, std::uint64_t seed, std::size_t nsim,
                     std::size_t begin, std::size_t end, core::ScratchPool* scratch,
                     Consume&& consume) {
  const std::size_t np = sched.num_points();
  const std::size_t zn = sched.normals_per_path();
  core::ScratchBuf buf(scratch, range_scratch_doubles(sched, W));
  double* const a = buf.data;
  double* const b = buf.data + np * W;
  double* const zbuf = buf.data + 2 * np * W;
  double* const zs = zbuf + zn * W;
  for (std::size_t base = begin; base < end; base += W) {
    rng::NormalStream stream(seed, base / W);
    stream.fill({zbuf, zn * W});
    const std::size_t lanes = std::min<std::size_t>(W, nsim - base);
    if (lanes == W) {
      // Full group: vector construction straight from the cache buffer.
      consume(bridge_group<W>(sched, zbuf, a, b), base, W);
    } else {
      // Ragged final group: scalar per lane, reading lane-strided normals.
      for (std::size_t l = 0; l < lanes; ++l) {
        for (std::size_t i = 0; i < zn; ++i) zs[i] = zbuf[i * W + l];
        build_one(sched, zs, a, b);
        consume(a, base + l, 1);
      }
    }
  }
}

}  // namespace

void construct_intermediate(const BridgeSchedule& sched, std::span<const double> z,
                            std::size_t nsim, std::span<double> out, Width w) {
  omp_split(static_cast<std::ptrdiff_t>(nsim), [&](std::ptrdiff_t b, std::ptrdiff_t e) {
    construct_intermediate(sched, z, nsim, out, static_cast<std::size_t>(b),
                           static_cast<std::size_t>(e), w, nullptr);
  });
}

void construct_intermediate(const BridgeSchedule& sched, std::span<const double> z,
                            std::size_t nsim, std::span<double> out, std::size_t begin,
                            std::size_t end, Width w, core::ScratchPool* scratch) {
  assert(out.size() >= nsim * sched.num_points());
  vecmath::with_width(w, [&]<int W>() {
    construct_simd<W>(sched, z, nsim, out, begin, end, scratch);
  });
}

namespace {

template <int W>
void advanced_interleaved_width(const BridgeSchedule& sched, std::uint64_t seed,
                                std::size_t nsim, std::span<double> out, std::size_t begin,
                                std::size_t end, core::ScratchPool* scratch) {
  const std::size_t np = sched.num_points();
  run_interleaved<W>(sched, seed, nsim, begin, end, scratch,
                     [&](const double* path, std::size_t base, std::size_t lanes) {
                       // path is [point][lane] for `lanes` paths.
                       for (std::size_t c = 0; c < np; ++c) {
                         for (std::size_t l = 0; l < lanes; ++l) {
                           out[c * nsim + base + l] = path[c * lanes + l];
                         }
                       }
                     });
}

template <int W>
void advanced_fused_width(const BridgeSchedule& sched, std::uint64_t seed, std::size_t nsim,
                          std::span<double> avg_out, std::size_t begin, std::size_t end,
                          core::ScratchPool* scratch) {
  const std::size_t np = sched.num_points();
  const double inv = 1.0 / static_cast<double>(np - 1);
  run_interleaved<W>(sched, seed, nsim, begin, end, scratch,
                     [&](const double* path, std::size_t base, std::size_t lanes) {
                       for (std::size_t l = 0; l < lanes; ++l) {
                         double acc = 0.0;
                         for (std::size_t c = 1; c < np; ++c) acc += path[c * lanes + l];
                         avg_out[base + l] = acc * inv;
                       }
                     });
}

}  // namespace

void construct_advanced_interleaved(const BridgeSchedule& sched, std::uint64_t seed,
                                    std::size_t nsim, std::span<double> out, Width w) {
  omp_split(static_cast<std::ptrdiff_t>(nsim), [&](std::ptrdiff_t b, std::ptrdiff_t e) {
    construct_advanced_interleaved(sched, seed, nsim, out, static_cast<std::size_t>(b),
                                   static_cast<std::size_t>(e), w, nullptr);
  });
}

void construct_advanced_interleaved(const BridgeSchedule& sched, std::uint64_t seed,
                                    std::size_t nsim, std::span<double> out, std::size_t begin,
                                    std::size_t end, Width w, core::ScratchPool* scratch) {
  assert(out.size() >= nsim * sched.num_points());
  vecmath::with_width(w, [&]<int W>() {
    advanced_interleaved_width<W>(sched, seed, nsim, out, begin, end, scratch);
  });
}

void construct_advanced_fused(const BridgeSchedule& sched, std::uint64_t seed, std::size_t nsim,
                              std::span<double> path_average_out, Width w) {
  omp_split(static_cast<std::ptrdiff_t>(nsim), [&](std::ptrdiff_t b, std::ptrdiff_t e) {
    construct_advanced_fused(sched, seed, nsim, path_average_out, static_cast<std::size_t>(b),
                             static_cast<std::size_t>(e), w, nullptr);
  });
}

void construct_advanced_fused(const BridgeSchedule& sched, std::uint64_t seed, std::size_t nsim,
                              std::span<double> path_average_out, std::size_t begin,
                              std::size_t end, Width w, core::ScratchPool* scratch) {
  assert(path_average_out.size() >= nsim);
  vecmath::with_width(w, [&]<int W>() {
    advanced_fused_width<W>(sched, seed, nsim, path_average_out, begin, end, scratch);
  });
}

}  // namespace finbench::kernels::brownian
