// Tests for the binomial-tree kernel (Fig. 5): convergence to the analytic
// Black–Scholes price, equivalence of all optimization levels (including
// the register-tiled variant at awkward step counts), and American-option
// properties.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "finbench/core/analytic.hpp"
#include "finbench/core/workload.hpp"
#include "finbench/kernels/binomial.hpp"

namespace {

using namespace finbench;
using namespace finbench::kernels;

core::OptionSpec euro_put(double s = 100, double k = 100, double t = 1, double r = 0.05,
                          double v = 0.2) {
  return {s, k, t, r, v, core::OptionType::kPut, core::ExerciseStyle::kEuropean};
}

TEST(Binomial, ConvergesToBlackScholes) {
  const core::OptionSpec o = euro_put(100, 110, 1.5, 0.04, 0.3);
  const double exact = core::black_scholes_price(o);
  // CRR error oscillates (sawtooth in N as the strike crosses lattice
  // nodes), so assert the O(1/N) envelope rather than monotone decay.
  for (int steps : {64, 256, 1024, 4096}) {
    const double smoothed = 0.5 * (binomial::price_one_reference(o, steps) +
                                   binomial::price_one_reference(o, steps + 1));
    EXPECT_LT(std::fabs(smoothed - exact), 2.0 / steps) << steps;
  }
  EXPECT_NEAR(binomial::price_one_reference(o, 8192), exact, 3e-4);
}

TEST(Binomial, CallAndPutBothConverge) {
  for (auto type : {core::OptionType::kCall, core::OptionType::kPut}) {
    core::OptionSpec o = euro_put(95, 100, 0.75, 0.06, 0.25);
    o.type = type;
    const double exact = core::black_scholes_price(o);
    EXPECT_NEAR(binomial::price_one_reference(o, 2048), exact, 2e-3);
  }
}

TEST(Binomial, AmericanCallEqualsEuropeanWithoutDividends) {
  core::OptionSpec eu = euro_put();
  eu.type = core::OptionType::kCall;
  core::OptionSpec am = eu;
  am.style = core::ExerciseStyle::kAmerican;
  EXPECT_NEAR(binomial::price_one_reference(eu, 1024), binomial::price_one_reference(am, 1024),
              1e-10);
}

TEST(Binomial, AmericanPutWorthMoreThanEuropean) {
  core::OptionSpec eu = euro_put(100, 110, 2.0, 0.08, 0.25);
  core::OptionSpec am = eu;
  am.style = core::ExerciseStyle::kAmerican;
  const double pe = binomial::price_one_reference(eu, 1024);
  const double pa = binomial::price_one_reference(am, 1024);
  EXPECT_GT(pa, pe + 1e-4);
}

TEST(Binomial, AmericanPutAtLeastIntrinsic) {
  for (double spot : {60.0, 80.0, 100.0, 120.0}) {
    core::OptionSpec am = euro_put(spot, 100, 1.0, 0.05, 0.2);
    am.style = core::ExerciseStyle::kAmerican;
    const double p = binomial::price_one_reference(am, 512);
    EXPECT_GE(p, std::max(100.0 - spot, 0.0) - 1e-9) << spot;
  }
}

TEST(Binomial, KnownAmericanPutValue) {
  // Standard reference case: S=K=100, r=5%, sigma=20%, T=1. The American
  // put converges to ~6.0903 (vs 5.5735 European).
  core::OptionSpec am = euro_put();
  am.style = core::ExerciseStyle::kAmerican;
  EXPECT_NEAR(binomial::price_one_reference(am, 8192), 6.0903, 5e-3);
}

TEST(Binomial, BasicMatchesReference) {
  const auto opts = core::make_option_workload(37, 4);
  std::vector<double> ref(opts.size()), basic(opts.size());
  binomial::price_reference(opts, 257, ref);
  binomial::price_basic(opts, 257, basic);
  for (std::size_t i = 0; i < opts.size(); ++i) {
    EXPECT_NEAR(basic[i], ref[i], 1e-9 * std::max(1.0, std::fabs(ref[i]))) << i;
  }
}

class BinomialWidthTest : public ::testing::TestWithParam<binomial::Width> {};
INSTANTIATE_TEST_SUITE_P(Widths, BinomialWidthTest,
                         ::testing::Values(binomial::Width::kScalar, binomial::Width::kAvx2,
                                           binomial::Width::kAvx512, binomial::Width::kAuto));

TEST_P(BinomialWidthTest, IntermediateMatchesReference) {
  for (std::size_t n : {1UL, 3UL, 8UL, 9UL, 16UL, 33UL}) {
    const auto opts = core::make_option_workload(n, 6);
    std::vector<double> ref(n), simd(n);
    binomial::price_reference(opts, 200, ref);
    binomial::price_intermediate(opts, 200, simd, GetParam());
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(simd[i], ref[i], 1e-8 * std::max(1.0, std::fabs(ref[i])))
          << "n=" << n << " i=" << i;
    }
  }
}

TEST_P(BinomialWidthTest, IntermediateAmericanMatchesReference) {
  core::SingleOptionWorkloadParams p;
  p.style = core::ExerciseStyle::kAmerican;
  const auto opts = core::make_option_workload(19, 8, p);
  std::vector<double> ref(opts.size()), simd(opts.size());
  binomial::price_reference(opts, 311, ref);
  binomial::price_intermediate(opts, 311, simd, GetParam());
  for (std::size_t i = 0; i < opts.size(); ++i) {
    EXPECT_NEAR(simd[i], ref[i], 1e-8 * std::max(1.0, std::fabs(ref[i]))) << i;
  }
}

TEST_P(BinomialWidthTest, MixedExerciseBatch) {
  // American and European options interleaved in the same SIMD group.
  core::SingleOptionWorkloadParams p;
  auto opts = core::make_option_workload(16, 10, p);
  for (std::size_t i = 0; i < opts.size(); i += 2) {
    opts[i].style = core::ExerciseStyle::kAmerican;
  }
  std::vector<double> ref(opts.size()), simd(opts.size());
  binomial::price_reference(opts, 128, ref);
  binomial::price_intermediate(opts, 128, simd, GetParam());
  for (std::size_t i = 0; i < opts.size(); ++i) {
    EXPECT_NEAR(simd[i], ref[i], 1e-8 * std::max(1.0, std::fabs(ref[i]))) << i;
  }
}

// Register tiling must agree with the plain reduction for every alignment
// of steps vs tile size (the remainder path is the tricky part).
class BinomialTilingTest : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(StepCounts, BinomialTilingTest,
                         ::testing::Values(1, 2, 15, 16, 17, 31, 32, 33, 63, 64, 100, 127, 255,
                                           1024));

TEST_P(BinomialTilingTest, AdvancedMatchesIntermediate) {
  const int steps = GetParam();
  const auto opts = core::make_option_workload(16, 12);
  std::vector<double> inter(opts.size()), tiled(opts.size()), unrolled(opts.size());
  binomial::price_intermediate(opts, steps, inter);
  binomial::price_advanced(opts, steps, tiled);
  binomial::price_advanced_unrolled(opts, steps, unrolled);
  for (std::size_t i = 0; i < opts.size(); ++i) {
    EXPECT_NEAR(tiled[i], inter[i], 1e-10 * std::max(1.0, std::fabs(inter[i])))
        << "steps=" << steps << " i=" << i;
    EXPECT_NEAR(unrolled[i], tiled[i], 1e-12 * std::max(1.0, std::fabs(tiled[i])));
  }
}

TEST(Binomial, TilingAgreesAcrossWidths) {
  const auto opts = core::make_option_workload(8, 14);
  std::vector<double> w4(opts.size());
  binomial::price_advanced(opts, 500, w4, binomial::Width::kAvx2);
#if defined(FINBENCH_HAVE_AVX512)
  std::vector<double> w8(opts.size());
  binomial::price_advanced(opts, 500, w8, binomial::Width::kAvx512);
  for (std::size_t i = 0; i < opts.size(); ++i) EXPECT_EQ(w4[i], w8[i]) << i;
#endif
  std::vector<double> w1(opts.size());
  binomial::price_advanced(opts, 500, w1, binomial::Width::kScalar);
  for (std::size_t i = 0; i < opts.size(); ++i) {
    EXPECT_NEAR(w1[i], w4[i], 1e-11 * std::max(1.0, std::fabs(w4[i]))) << i;
  }
}

// Tiled lane groups holding an American option must honor early exercise
// (they used to reduce every lane as European), and so must basic.
TEST(Binomial, AdvancedAndBasicPriceAmericanLikeReference) {
  core::SingleOptionWorkloadParams p;
  p.style = core::ExerciseStyle::kAmerican;
  auto opts = core::make_option_workload(19, 8, p);
  opts[3].style = core::ExerciseStyle::kEuropean;  // a mixed lane group
  // Deep in-the-money puts: early exercise is worth ~5.6 here.
  const core::OptionSpec itm{80, 120, 1, 0.05, 0.2, core::OptionType::kPut,
                             core::ExerciseStyle::kAmerican};
  opts.insert(opts.end(), 16, itm);
  const int steps = 256;
  std::vector<double> ref(opts.size()), tiled(opts.size()), unrolled(opts.size()),
      basic(opts.size());
  binomial::price_reference(opts, steps, ref);
  binomial::price_advanced(opts, steps, tiled);
  binomial::price_advanced_unrolled(opts, steps, unrolled);
  binomial::price_basic(opts, steps, basic);
  EXPECT_NEAR(ref.back(), 40.0, 1e-9);  // exercise at once
  for (std::size_t i = 0; i < opts.size(); ++i) {
    const double tol = 1e-8 * std::max(1.0, std::fabs(ref[i]));
    EXPECT_NEAR(tiled[i], ref[i], tol) << i;
    EXPECT_NEAR(unrolled[i], ref[i], tol) << i;
    EXPECT_EQ(basic[i], ref[i]) << i;
  }
}

// --- price_one_simd: one option on W lanes ----------------------------------

// Calls and puts, both styles, American calls with a dividend yield (the
// only calls early exercise can pay for), deep-ITM puts that exercise at
// once, at odd and even depths including steps = 1 and the engine's
// 16-step floor.
std::vector<core::OptionSpec> one_simd_book() {
  std::vector<core::OptionSpec> book;
  for (auto type : {core::OptionType::kCall, core::OptionType::kPut}) {
    for (auto style : {core::ExerciseStyle::kEuropean, core::ExerciseStyle::kAmerican}) {
      for (double q : {0.0, 0.04}) {
        for (double spot : {80.0, 100.0, 130.0}) {
          core::OptionSpec o{spot, 105, 0.9, 0.05, 0.25, type, style};
          o.dividend = q;
          book.push_back(o);
        }
      }
    }
  }
  return book;
}

// Depths around the fused pass's threshold (fewer levels than one pass
// carries are reduced one at a time), so both parities of the levels left
// over are hit, plus one past L1.
constexpr int kFused = binomial::kOneSimdLevelsPerPass;
constexpr int kOneSimdSteps[] = {kFused - 1, kFused, kFused + 1, kFused + 2, 16, 17,
                                 64,         255,    256,        1023,       4097};

template <int W>
std::vector<double> price_all_one_simd(const std::vector<core::OptionSpec>& book, int steps) {
  std::vector<double> lattice(binomial::one_simd_doubles(steps));
  std::vector<double> out;
  for (const core::OptionSpec& o : book) {
    out.push_back(binomial::price_one_simd<W>(o, steps, lattice));
  }
  return out;
}

template <int W>
void expect_one_simd_matches_reference() {
  const auto book = one_simd_book();
  for (const int steps : kOneSimdSteps) {
    const std::vector<double> got = price_all_one_simd<W>(book, steps);
    for (std::size_t i = 0; i < book.size(); ++i) {
      const double ref = binomial::price_one_reference(book[i], steps);
      if (book[i].style == core::ExerciseStyle::kEuropean) {
        EXPECT_EQ(got[i], ref) << "W=" << W << " steps=" << steps << " i=" << i;
      } else {
        EXPECT_NEAR(got[i], ref, 1e-8 * std::max(1.0, std::fabs(ref)))
            << "W=" << W << " steps=" << steps << " i=" << i;
      }
    }
  }
}

TEST(BinomialOneSimd, W4MatchesReference) { expect_one_simd_matches_reference<4>(); }

#if defined(FINBENCH_HAVE_AVX512)
TEST(BinomialOneSimd, W8MatchesReference) { expect_one_simd_matches_reference<8>(); }

TEST(BinomialOneSimd, W4BitwiseEqualsW8) {
  const auto book = one_simd_book();
  for (const int steps : kOneSimdSteps) {
    const std::vector<double> w4 = price_all_one_simd<4>(book, steps);
    const std::vector<double> w8 = price_all_one_simd<8>(book, steps);
    for (std::size_t i = 0; i < book.size(); ++i) {
      EXPECT_EQ(w4[i], w8[i]) << "steps=" << steps << " i=" << i;
    }
  }
}
#endif

// The single-option kernel's American contract without fusion or skipped
// zero spans: one level per pass over every node, each node
// max(pu*up + pd*dn, E_q[half-m+j]) from the parity-split exercise rows.
double american_one_level_per_pass(const core::OptionSpec& o, int steps) {
  const auto p = binomial::detail::crr_derived(o, steps);
  const int half = steps / 2;
  std::vector<double> call(steps + 1), ex[2] = {call, call};
  double s = o.spot * std::pow(p.down, steps);
  double s0 = o.spot * std::pow(p.down, 2 * half), s1 = s0 * p.down;
  const double ratio = p.up / p.down;
  for (int j = 0; j <= steps; ++j) {
    call[j] = binomial::detail::payoff_of(o, s);
    ex[0][j] = binomial::detail::payoff_of(o, s0);
    ex[1][j] = binomial::detail::payoff_of(o, s1);
    s *= ratio;
    s0 *= ratio;
    s1 *= ratio;
  }
  for (int level = steps - 1; level >= 0; --level) {
    const double* e = ex[level & 1].data() + (half - level / 2);
    for (int j = 0; j <= level; ++j) {
      call[j] = std::max(p.pu_by_df * call[j + 1] + p.pd_by_df * call[j], e[j]);
    }
  }
  return call[0];
}

template <int W>
void expect_american_matches_one_level_per_pass() {
  for (const int steps : kOneSimdSteps) {
    auto book = one_simd_book();
    for (core::OptionSpec& o : book) o.style = core::ExerciseStyle::kAmerican;
    const std::vector<double> got = price_all_one_simd<W>(book, steps);
    for (std::size_t i = 0; i < book.size(); ++i) {
      EXPECT_EQ(got[i], american_one_level_per_pass(book[i], steps))
          << "W=" << W << " steps=" << steps << " i=" << i;
    }
  }
}

TEST(BinomialOneSimd, AmericanMatchesOneLevelPerPassBitwise) {
  expect_american_matches_one_level_per_pass<1>();
  expect_american_matches_one_level_per_pass<4>();
#if defined(FINBENCH_HAVE_AVX512)
  expect_american_matches_one_level_per_pass<8>();
#endif
}

TEST(BinomialOneSimd, LatticeWithNaNProbabilityPricesNaN) {
  // vol*sqrt(dt) below half an ulp of 1 rounds u to 1, so with r = q the
  // risk-neutral probability is 0/0. Every node is NaN, as in the
  // reference: no zero span is skipped and no exercise value replaces a
  // NaN continuation.
  for (auto type : {core::OptionType::kCall, core::OptionType::kPut}) {
    for (auto style : {core::ExerciseStyle::kEuropean, core::ExerciseStyle::kAmerican}) {
      core::OptionSpec o{100, 100.5, 1.0, 0.03, 1e-17, type, style};
      o.dividend = 0.03;
      for (const int steps : {kFused, 34, 257}) {
        ASSERT_TRUE(std::isnan(binomial::price_one_reference(o, steps)));
        std::vector<double> lattice(binomial::one_simd_doubles(steps));
        EXPECT_TRUE(std::isnan(binomial::price_one_simd<1>(o, steps, lattice))) << steps;
        EXPECT_TRUE(std::isnan(binomial::price_one_simd<4>(o, steps, lattice))) << steps;
#if defined(FINBENCH_HAVE_AVX512)
        EXPECT_TRUE(std::isnan(binomial::price_one_simd<8>(o, steps, lattice))) << steps;
#endif
      }
    }
  }
}

TEST(BinomialOneSimd, EarlyExerciseIsPriced) {
  // The American put is worth more than the European, the dividend-paying
  // American call more than its European twin, and a deep-ITM put is
  // worth exactly its intrinsic value.
  core::OptionSpec put{100, 110, 2.0, 0.08, 0.25, core::OptionType::kPut,
                       core::ExerciseStyle::kEuropean};
  core::OptionSpec call{120, 100, 1.0, 0.02, 0.2, core::OptionType::kCall,
                        core::ExerciseStyle::kEuropean};
  call.dividend = 0.08;
  const int steps = 512;
  std::vector<double> lattice(binomial::one_simd_doubles(steps));
  for (core::OptionSpec o : {put, call}) {
    const double eu = binomial::price_one_simd<4>(o, steps, lattice);
    o.style = core::ExerciseStyle::kAmerican;
    EXPECT_GT(binomial::price_one_simd<4>(o, steps, lattice), eu + 1e-3);
  }
  const core::OptionSpec itm{80, 120, 1, 0.05, 0.2, core::OptionType::kPut,
                             core::ExerciseStyle::kAmerican};
  EXPECT_NEAR(binomial::price_one_simd<4>(itm, 256, lattice), 40.0, 1e-9);
}

TEST(Binomial, ThrowsOnExplodingProbability) {
  // r*dt too large relative to vol*sqrt(dt): pu > 1 must be rejected.
  core::OptionSpec o = euro_put(100, 100, 10.0, 0.5, 0.01);
  EXPECT_THROW(binomial::price_one_reference(o, 10), std::invalid_argument);
}

TEST(Binomial, FlopsModel) {
  EXPECT_DOUBLE_EQ(binomial::flops_per_option(1024), 3.0 * 1024 * 1025 / 2.0);
  EXPECT_DOUBLE_EQ(binomial::flops_per_option(1), 3.0);
}

TEST(Binomial, MonotoneInVolatility) {
  double prev = 0.0;
  for (double vol = 0.1; vol <= 0.6; vol += 0.1) {
    core::OptionSpec o = euro_put(100, 100, 1.0, 0.05, vol);
    const double p = binomial::price_one_reference(o, 512);
    EXPECT_GT(p, prev);
    prev = p;
  }
}

}  // namespace
