#include "finbench/kernels/binomial.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "finbench/arch/aligned.hpp"
#include "finbench/core/scratch_pool.hpp"
#include "finbench/obs/metrics.hpp"
#include "finbench/vecmath/vecmath.hpp"
#include "../omp_split.hpp"

namespace finbench::kernels::binomial {

namespace {

// CRR lattice parameters, pre-scaled by the per-step discount factor so the
// inner loop is exactly Lis. 2's `puByDf*Call[j+1] + pdByDf*Call[j]`.
struct CrrParams {
  double pu_by_df;
  double pd_by_df;
  double up;    // u
  double down;  // d
};

CrrParams crr(const core::OptionSpec& o, int steps) {
  const double dt = o.years / steps;
  const double u = std::exp(o.vol * std::sqrt(dt));
  const double d = 1.0 / u;
  // Risk-neutral drift is r - q; discounting stays at r.
  const double growth = std::exp((o.rate - o.dividend) * dt);
  const double pu = (growth - d) / (u - d);
  if (pu < 0.0 || pu > 1.0) {
    throw std::invalid_argument("binomial: risk-neutral probability outside [0,1]; "
                                "increase steps or reduce |r - q|*dt");
  }
  const double df = std::exp(-o.rate * dt);
  return {pu * df, (1.0 - pu) * df, u, d};
}

double payoff(const core::OptionSpec& o, double s) {
  return o.type == core::OptionType::kCall ? std::max(s - o.strike, 0.0)
                                           : std::max(o.strike - s, 0.0);
}

}  // namespace

namespace detail {

CrrDerived crr_derived(const core::OptionSpec& o, int steps) {
  const CrrParams p = crr(o, steps);
  return {p.pu_by_df, p.pd_by_df, p.up, p.down};
}

double payoff_of(const core::OptionSpec& o, double s) { return payoff(o, s); }

}  // namespace detail

// --- Reference (Lis. 2) ----------------------------------------------------

double price_one_reference(const core::OptionSpec& opt, int steps) {
  arch::AlignedVector<double> lattice(static_cast<std::size_t>(steps) + 1);
  return price_one_reference(opt, steps, {lattice.data(), lattice.size()});
}

double price_one_reference(const core::OptionSpec& opt, int steps, std::span<double> lattice) {
  assert(lattice.size() >= static_cast<std::size_t>(steps) + 1);
  const CrrParams p = crr(opt, steps);
  double* call = lattice.data();

  // Leaves: S * u^j * d^(N-j), j = 0..N (j counts up-moves).
  double s = opt.spot * std::pow(p.down, steps);
  const double ratio = p.up / p.down;
  for (int j = 0; j <= steps; ++j) {
    call[j] = payoff(opt, s);
    s *= ratio;
  }

  const bool american = opt.style == core::ExerciseStyle::kAmerican;
  for (int i = steps; i > 0; --i) {
    if (american) {
      // Spot at node (i-1, j) is S * u^j * d^(i-1-j).
      double node_s = opt.spot * std::pow(p.down, i - 1);
      for (int j = 0; j <= i - 1; ++j) {
        const double cont = p.pu_by_df * call[j + 1] + p.pd_by_df * call[j];
        call[j] = std::max(cont, payoff(opt, node_s));
        node_s *= ratio;
      }
    } else {
      for (int j = 0; j <= i - 1; ++j) {
        call[j] = p.pu_by_df * call[j + 1] + p.pd_by_df * call[j];
      }
    }
  }
  return call[0];
}

// --- Single option on SIMD lanes ----------------------------------------------

namespace {

// [lo, hi]: the nodes of a row that may be nonzero (empty when lo > hi).
struct NonzeroSpan {
  int lo;
  int hi;
};

NonzeroSpan nonzero_span(const double* row, int n) {
  NonzeroSpan nz{0, n - 1};
  while (nz.hi >= 0 && row[nz.hi] == 0.0) --nz.hi;
  while (nz.lo < nz.hi && row[nz.lo] == 0.0) ++nz.lo;
  return nz;
}

// The parity-split exercise rows of an American option and their spans.
struct ExerciseRows {
  const double* row[2];
  NonzeroSpan nz[2];
};

// Backward induction of one option's row from level `steps` to level 0.
//
// Each pass over the row carries it down F = kOneSimdLevelsPerPass levels:
// it loads one new block of W level-i nodes per step and stores one block
// of level i-F, keeping in registers, per level, the block the level below
// still needs. Level i-1's j+1 operand is an unaligned load of the row,
// which level i still occupies; the deeper levels' are shift_ins of two
// register blocks (an all-shuffle pass measured slower: the shuffles share
// a port with the arithmetic, the loads do not). Lanes past a level's last
// node compute garbage from the zero-filled pad and never feed a valid
// node. Levels left below F take a scalar loop.
//
// Every node of level i outside the span [lo, hi] is +0 in memory, and a
// node whose inputs and exercise value are +0 is +0 (pu*0 + pd*0 for
// finite pu, pd, then max(0, 0)). A level's span is therefore its parent's
// widened by one node down and by its exercise row's span, and a pass
// stores only the blocks over its span: puts never touch the nodes above
// the strike, calls those below it, about a quarter of a deep lattice.
//
// Every node that is computed is pu*C(L+1, j+1) + pd*C(L+1, j) (then the
// max with E_q), so results do not depend on F or W.
template <int W, bool American>
double reduce_one_simd(double* call, int steps, double pu_s, double pd_s,
                       const ExerciseRows& x) {
  using V = simd::Vec<double, W>;
  constexpr int F = kOneSimdLevelsPerPass;
  const V pu(pu_s), pd(pd_s);
  // Level L = 2m+q reads its exercise values from row q at half - m.
  const int half = steps / 2;
  const auto ex_offset = [&](int level) { return half - level / 2; };

  // pu*0 is +0 only for a finite pu: a lattice whose u rounds to 1 has a
  // NaN pu and every node NaN, so it keeps the whole row.
  NonzeroSpan nz = std::isfinite(pu_s) && std::isfinite(pd_s)
                       ? nonzero_span(call, steps + 1)
                       : NonzeroSpan{0, steps};
  int i = steps;
  for (; i >= F; i -= F) {
    const double* ex[F] = {};
    for (int f = 0; f < F; ++f) {
      const int level = i - f - 1;
      --nz.lo;
      if constexpr (American) {
        const int q = level & 1, off = ex_offset(level);
        ex[f] = x.row[q] + off;
        if (x.nz[q].lo <= x.nz[q].hi) {
          nz.lo = std::min(nz.lo, x.nz[q].lo - off);
          nz.hi = std::max(nz.hi, x.nz[q].hi - off);
        }
      }
    }
    nz.lo = std::max(nz.lo, 0);
    nz.hi = std::min(nz.hi, i - F);
    if (nz.lo > nz.hi) continue;  // the whole level is +0 already
    const int first = nz.lo / W * W;

    // lvl[f]: the block of level i-f that level i-f-1's next block takes
    // as its `dn` operand.
    V lvl[F];
    // Loads the level-i block at `top` and carries it down n levels:
    // level i-f-1's block at top-(f+1)*W from level i-f's blocks there
    // (lvl[f]) and at top-f*W. Returns the last block made.
    const auto descend = [&](int top, int n) {
      V cur = V::loadu(call + top);
      for (int f = 0; f < n; ++f) {
        const int at = top - (f + 1) * W;
        const V up = f == 0 ? V::loadu(call + at + 1) : shift_in(lvl[f], cur);
        V next = pu * up + pd * lvl[f];
        // max(E, cont) is std::max(cont, E): cont when either is NaN.
        if constexpr (American) next = max(V::loadu(ex[f] + at), next);
        lvl[f] = cur;
        cur = next;
      }
      return cur;
    };
    for (int s = 0; s < F; ++s) lvl[s] = descend(first + s * W, s);
    for (int j = first; j <= nz.hi; j += W) descend(j + F * W, F).storeu(call + j);
  }
  // The fewer than F levels left have fewer than F nodes each.
  for (; i > 0; --i) {
    const double* const ex = American ? x.row[(i - 1) & 1] + ex_offset(i - 1) : nullptr;
    for (int j = 0; j < i; ++j) {
      const double c = pu_s * call[j + 1] + pd_s * call[j];
      call[j] = American ? std::max(c, ex[j]) : c;
    }
  }
  return call[0];
}

}  // namespace

template <int W>
double price_one_simd(const core::OptionSpec& opt, int steps, std::span<double> lattice) {
  assert(lattice.size() >= one_simd_doubles(steps));
  const CrrParams p = crr(opt, steps);
  const int nodes = steps + 1;
  const std::size_t row = static_cast<std::size_t>(nodes) + kOneSimdPad;
  double* const call = lattice.data();

  // Leaves exactly as the reference builds them.
  double s = opt.spot * std::pow(p.down, steps);
  const double ratio = p.up / p.down;
  for (int j = 0; j < nodes; ++j) {
    call[j] = payoff(opt, s);
    s *= ratio;
  }
  std::fill(call + nodes, call + row, 0.0);

  if (opt.style != core::ExerciseStyle::kAmerican) {
    return reduce_one_simd<W, false>(call, steps, p.pu_by_df, p.pd_by_df, {});
  }

  // Exercise rows: ex[q][r] = payoff(S*u^(2(r-half)-q)), so node (L, j)
  // with L = 2m+q reads ex[q][half-m+j]. Each row is one multiply chain
  // by u/d = u^2.
  double* const ex0 = call + row;
  double* const ex1 = ex0 + row;
  double s0 = opt.spot * std::pow(p.down, 2 * (steps / 2));
  double s1 = s0 * p.down;
  for (int r = 0; r < nodes; ++r) {
    ex0[r] = payoff(opt, s0);
    ex1[r] = payoff(opt, s1);
    s0 *= ratio;
    s1 *= ratio;
  }
  std::fill(ex0 + nodes, ex0 + row, 0.0);
  std::fill(ex1 + nodes, ex1 + row, 0.0);
  const ExerciseRows x{{ex0, ex1}, {nonzero_span(ex0, nodes), nonzero_span(ex1, nodes)}};
  return reduce_one_simd<W, true>(call, steps, p.pu_by_df, p.pd_by_df, x);
}

template double price_one_simd<1>(const core::OptionSpec&, int, std::span<double>);
template double price_one_simd<4>(const core::OptionSpec&, int, std::span<double>);
#if defined(FINBENCH_HAVE_AVX512)
template double price_one_simd<8>(const core::OptionSpec&, int, std::span<double>);
#endif

void price_reference(std::span<const core::OptionSpec> opts, int steps, std::span<double> out,
                     core::ScratchPool* scratch) {
  static obs::Counter& priced = obs::counter("binomial.options_priced");
  priced.add(opts.size());
  assert(out.size() >= opts.size());
  core::ScratchBuf buf(scratch, static_cast<std::size_t>(steps) + 1);
  const std::span<double> lattice{buf.data, static_cast<std::size_t>(steps) + 1};
  for (std::size_t o = 0; o < opts.size(); ++o) {
    out[o] = price_one_reference(opts[o], steps, lattice);
  }
}

// --- Basic: pragmas only ----------------------------------------------------

void price_basic(std::span<const core::OptionSpec> opts, int steps, std::span<double> out,
                 core::ScratchPool* scratch) {
  omp_split(static_cast<std::ptrdiff_t>(opts.size()), [&](std::ptrdiff_t b, std::ptrdiff_t e) {
    price_basic(opts, b, e, steps, out, scratch);
  }, 1);
}

void price_basic(std::span<const core::OptionSpec> opts, std::size_t begin, std::size_t end,
                 int steps, std::span<double> out, core::ScratchPool* scratch) {
  static obs::Counter& priced = obs::counter("binomial.options_priced");
  priced.add(end - begin);
  assert(out.size() >= end);
  core::ScratchBuf buf(scratch, static_cast<std::size_t>(steps) + 1);
  double* const call = buf.data;
  for (std::size_t o = begin; o < end; ++o) {
    const core::OptionSpec& opt = opts[o];
    if (opt.style == core::ExerciseStyle::kAmerican) {
      // The pragma-only level has no exercise-aware loop of its own.
      out[o] = price_one_reference(opt, steps, {call, static_cast<std::size_t>(steps) + 1});
      continue;
    }
    const CrrParams p = crr(opt, steps);
    double s = opt.spot * std::pow(p.down, steps);
    const double ratio = p.up / p.down;
    for (int j = 0; j <= steps; ++j) {
      call[j] = payoff(opt, s);
      s *= ratio;
    }
    const double pu = p.pu_by_df, pd = p.pd_by_df;
    double* c = call;
    for (int i = steps; i > 0; --i) {
      // Inner-loop autovectorization — c[j+1] is the unaligned load the
      // paper notes; this is all the "basic" level is allowed to do.
#pragma omp simd
      for (int j = 0; j <= i - 1; ++j) c[j] = pu * c[j + 1] + pd * c[j];
    }
    out[o] = c[0];
  }
}

// --- Intermediate / Advanced: SIMD across options ---------------------------

namespace {

// Shared lane setup: W options side by side, Call[j] is a W-wide vector.
// `group` indexes the block of W consecutive options.
template <int W>
struct LaneBatch {
  using V = simd::Vec<double, W>;
  V pu, pd;  // discounted probabilities per lane
  void init_leaves(std::span<const core::OptionSpec> opts, std::size_t base, int steps,
                   double* call /* (steps+1) x W */) {
    alignas(64) double pu_a[W], pd_a[W];
    for (int l = 0; l < W; ++l) {
      const core::OptionSpec& o = opts[base + l];
      const CrrParams p = crr(o, steps);
      pu_a[l] = p.pu_by_df;
      pd_a[l] = p.pd_by_df;
      double s = o.spot * std::pow(p.down, steps);
      const double ratio = p.up / p.down;
      for (int j = 0; j <= steps; ++j) {
        call[static_cast<std::size_t>(j) * W + l] =
            o.type == core::OptionType::kCall ? std::max(s - o.strike, 0.0)
                                              : std::max(o.strike - s, 0.0);
        s *= ratio;
      }
    }
    pu = V::load(pu_a);
    pd = V::load(pd_a);
  }
};

// Kept out of line: inlined into the lane-group loop it runs ~15% slower.
template <int W>
[[gnu::noinline]] void reduce_european(double* call, int steps, simd::Vec<double, W> pu,
                                       simd::Vec<double, W> pd) {
  using V = simd::Vec<double, W>;
  for (int i = steps; i > 0; --i) {
    for (int j = 0; j <= i - 1; ++j) {
      const V up = V::load(call + static_cast<std::size_t>(j + 1) * W);
      const V dn = V::load(call + static_cast<std::size_t>(j) * W);
      fmadd(pu, up, pd * dn).store(call + static_cast<std::size_t>(j) * W);
    }
  }
}

// American reduction needs the node spot prices: keep per-lane S*d^i and
// the u/d ratio so node prices are rebuilt incrementally per level.
template <int W>
void reduce_american(std::span<const core::OptionSpec> opts, std::size_t base, double* call,
                     int steps, simd::Vec<double, W> pu, simd::Vec<double, W> pd) {
  using V = simd::Vec<double, W>;
  alignas(64) double ratio_a[W], strike_a[W], sign_a[W], base_s_a[W], am_a[W];
  for (int l = 0; l < W; ++l) {
    const core::OptionSpec& o = opts[base + l];
    const CrrParams p = crr(o, steps);
    ratio_a[l] = p.up / p.down;
    strike_a[l] = o.strike;
    sign_a[l] = o.type == core::OptionType::kCall ? 1.0 : -1.0;
    base_s_a[l] = o.spot * std::pow(p.down, steps);
    am_a[l] = o.style == core::ExerciseStyle::kAmerican ? 1.0 : 0.0;
  }
  const V ratio = V::load(ratio_a), strike = V::load(strike_a), sign = V::load(sign_a);
  // European lanes get exercise value 0; continuation values are always
  // >= 0 for vanilla payoffs, so max(cont, 0) leaves them untouched.
  const V am = V::load(am_a);
  V level_base = V::load(base_s_a);  // S * d^i for current level i

  alignas(64) double inv_down[W];
  for (int l = 0; l < W; ++l) {
    inv_down[l] = 1.0 / crr(opts[base + l], steps).down;
  }
  const V invd = V::load(inv_down);

  for (int i = steps; i > 0; --i) {
    level_base *= invd;  // now S * d^(i-1)
    V node_s = level_base;
    for (int j = 0; j <= i - 1; ++j) {
      const V up = V::load(call + static_cast<std::size_t>(j + 1) * W);
      const V dn = V::load(call + static_cast<std::size_t>(j) * W);
      const V cont = fmadd(pu, up, pd * dn);
      const V exercise = am * max(sign * (node_s - strike), V(0.0));
      max(cont, exercise).store(call + static_cast<std::size_t>(j) * W);
      node_s *= ratio;
    }
  }
}

template <int W>
bool any_american(std::span<const core::OptionSpec> opts, std::size_t base) {
  for (int l = 0; l < W; ++l) {
    if (opts[base + l].style == core::ExerciseStyle::kAmerican) return true;
  }
  return false;
}

// --- Register tiling (Lis. 3) -----------------------------------------------

// One tile pass: reduce the W-wide Call array (length m+1) by TS time
// steps. The TS-deep Tile lives in registers; each Call value is loaded
// and stored exactly once per pass. Kept out of line: inlined into the
// lane-group loop, the tile spills and the pass runs ~25% slower.
template <int W, int TS, bool Unroll>
[[gnu::noinline]] void tile_pass(double* call, int m, simd::Vec<double, W> pu,
                                 simd::Vec<double, W> pd) {
  using V = simd::Vec<double, W>;
  V tile[TS];

  // Triangle init (the `...` of Lis. 3): Tile[j] holds the prefix value at
  // position j after (TS-1-j) reduction steps, so the steady-state loop's
  // diagonal recurrence lines up (see DESIGN.md §4).
  for (int j = 0; j < TS; ++j) tile[j] = V::load(call + static_cast<std::size_t>(j) * W);
  for (int s = 1; s < TS; ++s) {
    for (int j = 0; j <= TS - 1 - s; ++j) tile[j] = fmadd(pu, tile[j + 1], pd * tile[j]);
  }

  // Steady state: stream Call[i] through the register tile. For the large
  // step counts of Fig. 5 the Call array exceeds L1; prefetch the next
  // column while the tile reduction runs (the paper's intermediate-level
  // software-prefetch technique).
  for (int i = TS; i <= m; ++i) {
    simd::prefetch_read(call + static_cast<std::size_t>(i + 4) * W);
    V m1 = V::load(call + static_cast<std::size_t>(i) * W);
    if constexpr (Unroll) {
#pragma GCC unroll 65534
      for (int j = TS - 1; j >= 0; --j) {
        const V m2 = fmadd(pu, m1, pd * tile[j]);
        tile[j] = m1;
        m1 = m2;
      }
    } else {
      for (int j = TS - 1; j >= 0; --j) {
        const V m2 = fmadd(pu, m1, pd * tile[j]);
        tile[j] = m1;
        m1 = m2;
      }
    }
    m1.store(call + static_cast<std::size_t>(i - TS) * W);
  }
}

// Options [begin, end) on the calling thread: full lane groups of W from
// `begin` through the intermediate reduction (TS = 0) or register tiles of
// depth TS, on one lattice leased only when a group exists; the options
// past the last group one at a time, still on W lanes.
template <int W, int TS, bool Unroll>
void price_lanes(std::span<const core::OptionSpec> opts, std::size_t begin, std::size_t end,
                 int steps, std::span<double> out, core::ScratchPool* scratch) {
  using V = simd::Vec<double, W>;
  assert(out.size() >= end);
  const std::size_t tail = begin + (end - begin) / W * W;
  if (begin < tail) {
    core::ScratchBuf buf(scratch, static_cast<std::size_t>(steps + 1) * W);
    double* const call = buf.data;
    for (std::size_t base = begin; base < tail; base += W) {
      LaneBatch<W> lanes;
      lanes.init_leaves(opts, base, steps, call);
      if (any_american<W>(opts, base)) {
        reduce_american<W>(opts, base, call, steps, lanes.pu, lanes.pd);
      } else {
        int m = steps;
        if constexpr (TS > 0) {
          for (; m >= TS; m -= TS) tile_pass<W, TS, Unroll>(call, m, lanes.pu, lanes.pd);
        }
        // Remainder (< TS steps): plain in-place reduction.
        reduce_european<W>(call, m, lanes.pu, lanes.pd);
      }
      V::load(call).storeu(out.data() + base);
    }
  }
  if (tail == end) return;
  core::ScratchBuf one(scratch, one_simd_doubles(steps));
  for (std::size_t o = tail; o < end; ++o) {
    out[o] = price_one_simd<W>(opts[o], steps, {one.data, one_simd_doubles(steps)});
  }
}

// The Fig. 5 rows: a static split of the lane groups over an OpenMP team,
// the last range taking the tail.
template <int TS, bool Unroll = false>
void split_lanes(std::span<const core::OptionSpec> opts, int steps, std::span<double> out,
                 Width w, core::ScratchPool* scratch) {
  vecmath::with_width(w, [&]<int W>() {
    omp_split(static_cast<std::ptrdiff_t>(opts.size()), [&](std::ptrdiff_t b, std::ptrdiff_t e) {
      price_lanes<W, TS, Unroll>(opts, b, e, steps, out, scratch);
    }, W);
  });
}

template <int TS, bool Unroll = false>
void range_lanes(std::span<const core::OptionSpec> opts, std::size_t begin, std::size_t end,
                 int steps, std::span<double> out, Width w, core::ScratchPool* scratch) {
  vecmath::with_width(w, [&]<int W>() {
    price_lanes<W, TS, Unroll>(opts, begin, end, steps, out, scratch);
  });
}

constexpr int kTileSize = 16;  // fits the zmm/ymm register file with room to spare

}  // namespace

void price_intermediate(std::span<const core::OptionSpec> opts, int steps, std::span<double> out,
                        Width w, core::ScratchPool* scratch) {
  split_lanes<0>(opts, steps, out, w, scratch);
}

void price_intermediate(std::span<const core::OptionSpec> opts, std::size_t begin,
                        std::size_t end, int steps, std::span<double> out, Width w,
                        core::ScratchPool* scratch) {
  range_lanes<0>(opts, begin, end, steps, out, w, scratch);
}

void price_advanced(std::span<const core::OptionSpec> opts, int steps, std::span<double> out,
                    Width w, core::ScratchPool* scratch) {
  split_lanes<kTileSize>(opts, steps, out, w, scratch);
}

void price_advanced(std::span<const core::OptionSpec> opts, std::size_t begin, std::size_t end,
                    int steps, std::span<double> out, Width w, core::ScratchPool* scratch) {
  range_lanes<kTileSize>(opts, begin, end, steps, out, w, scratch);
}

void price_advanced_tile(std::span<const core::OptionSpec> opts, int steps,
                         std::span<double> out, int tile_size, Width w,
                         core::ScratchPool* scratch) {
  switch (tile_size) {
    case 4: split_lanes<4>(opts, steps, out, w, scratch); return;
    case 8: split_lanes<8>(opts, steps, out, w, scratch); return;
    case 16: split_lanes<16>(opts, steps, out, w, scratch); return;
    case 32: split_lanes<32>(opts, steps, out, w, scratch); return;
    case 64: split_lanes<64>(opts, steps, out, w, scratch); return;
    default: throw std::invalid_argument("binomial: tile_size must be 4/8/16/32/64");
  }
}

void price_advanced_unrolled(std::span<const core::OptionSpec> opts, int steps,
                             std::span<double> out, Width w, core::ScratchPool* scratch) {
  split_lanes<kTileSize, true>(opts, steps, out, w, scratch);
}

void price_advanced_unrolled(std::span<const core::OptionSpec> opts, std::size_t begin,
                             std::size_t end, int steps, std::span<double> out, Width w,
                             core::ScratchPool* scratch) {
  range_lanes<kTileSize, true>(opts, begin, end, steps, out, w, scratch);
}

}  // namespace finbench::kernels::binomial
