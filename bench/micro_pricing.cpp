// google-benchmark microbenchmarks for the pricing layer: per-option cost
// of the closed forms, greeks, implied vol, and one lattice/PDE/MC solve —
// the numbers a capacity-planning user wants.

#include <benchmark/benchmark.h>

#include "micro_common.hpp"

#include "finbench/arch/aligned.hpp"
#include "finbench/core/analytic.hpp"
#include "finbench/core/workload.hpp"
#include "finbench/kernels/binomial.hpp"
#include "finbench/kernels/blackscholes.hpp"
#include "finbench/kernels/cranknicolson.hpp"
#include "finbench/kernels/lattice.hpp"
#include "finbench/kernels/heston.hpp"
#include "finbench/simd/vec.hpp"

namespace {

using namespace finbench;
using namespace finbench::kernels;

const auto kOpts = core::make_option_workload(512, 71);

void BM_AnalyticPrice(benchmark::State& state) {
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::black_scholes_price(kOpts[i++ & 511]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AnalyticPrice);

void BM_AnalyticGreeks(benchmark::State& state) {
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::black_scholes_greeks(kOpts[i++ & 511]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AnalyticGreeks);

void BM_ImpliedVol(benchmark::State& state) {
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& o = kOpts[i++ & 511];
    benchmark::DoNotOptimize(core::implied_volatility(o, core::black_scholes_price(o)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ImpliedVol);

void BM_BatchImpliedVolSimd(benchmark::State& state) {
  auto soa = core::make_bs_workload_soa(4096, 3);
  bs::price_intermediate(soa);
  std::vector<double> vols(soa.size());
  for (auto _ : state) {
    bs::implied_vol_intermediate(soa, soa.call, vols);
    benchmark::DoNotOptimize(vols.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 4096);
}
BENCHMARK(BM_BatchImpliedVolSimd);

void BM_BinomialCrr(benchmark::State& state) {
  const int steps = static_cast<int>(state.range(0));
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(binomial::price_one_reference(kOpts[i++ & 511], steps));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BinomialCrr)->Arg(128)->Arg(512);

// One deep lattice on W lanes (the per-option-depth path): args are
// {W, American, steps}. `nodes` is the lattice's steps*(steps+1)/2 node
// updates, skipped zero spans included, so the time per iteration over
// `nodes` is the cost per node.
void BM_BinomialOneSimd(benchmark::State& state) {
  double (*price)(const core::OptionSpec&, int, std::span<double>) =
      binomial::price_one_simd<4>;
#if defined(FINBENCH_HAVE_AVX512)
  if (state.range(0) == 8) price = binomial::price_one_simd<8>;
#endif
  const core::OptionSpec opt{100, 100, 1.0, 0.05, 0.25, core::OptionType::kPut,
                             state.range(1) != 0 ? core::ExerciseStyle::kAmerican
                                                 : core::ExerciseStyle::kEuropean};
  const int steps = static_cast<int>(state.range(2));
  arch::AlignedVector<double> lattice(binomial::one_simd_doubles(steps));
  const std::span<double> lat{lattice.data(), lattice.size()};
  for (auto _ : state) benchmark::DoNotOptimize(price(opt, steps, lat));
  const double nodes = 0.5 * steps * (steps + 1.0);
  state.counters["nodes"] = nodes;
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * nodes));
}
BENCHMARK(BM_BinomialOneSimd)
    ->ArgsProduct({{4, simd::kMaxVectorWidth}, {0, 1}, {1024, 4096, 16384}});

void BM_LeisenReimer(benchmark::State& state) {
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(lattice::price_leisen_reimer(kOpts[i++ & 511], 101));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LeisenReimer);

void BM_CrankNicolsonAmerican(benchmark::State& state) {
  core::OptionSpec o{100, 100, 1.0, 0.05, 0.25, core::OptionType::kPut,
                     core::ExerciseStyle::kAmerican};
  cn::GridSpec g;
  g.num_prices = 257;
  g.num_steps = 100;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cn::price_wavefront_split(o, g).price);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CrankNicolsonAmerican);

void BM_HestonAnalytic(benchmark::State& state) {
  heston::HestonParams m;
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(heston::price_analytic(kOpts[i++ & 511], m).call);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HestonAnalytic);

}  // namespace

FINBENCH_MICRO_MAIN()
