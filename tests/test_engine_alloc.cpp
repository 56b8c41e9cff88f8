// Proves the engine's zero-steady-state-allocation guarantee with a
// counting global operator new: after one warm-up pricing of a request
// (which builds the scratch cache — RNG streams, chunk bounds, result
// buffers, the negotiated-layout arena), every further repetition of the
// same request performs zero C++ heap allocations. Covered paths:
//
//   - Black–Scholes chunked across the pool in the variant's native layout
//     (the chunk closure fits std::function's small-buffer optimization),
//   - Black–Scholes with layout negotiation (AOS request, SOA kernel):
//     the conversion is cached in the request arena, repetitions pay only
//     the output writeback,
//   - chunked Monte Carlo (stream flavor) across a thread pool, both
//     schedules: chunks write into pre-sized scratch slices and the
//     dispatch closure fits std::function's small-buffer optimization,
//   - blocked (AoSoA) Black–Scholes chunks and Brownian path ranges, whose
//     path buffers lease from a pool the prepare hook reserves.
//
// The counter intercepts ::operator new (plain and aligned) only — the
// arena and AlignedAllocator route through these on purpose (see
// finbench/arch/aligned.hpp). malloc-level traffic from the OpenMP
// runtime is invisible here, which is the right scope: the guarantee is
// about the engine's own data structures.

#include <atomic>
#include <cstdlib>
#include <new>
#include <span>

#include <gtest/gtest.h>

#include "finbench/core/portfolio.hpp"
#include "finbench/core/workload.hpp"
#include "finbench/engine/engine.hpp"
#include "finbench/engine/registry.hpp"

namespace {

std::atomic<std::size_t> g_allocs{0};

std::size_t alloc_count() { return g_allocs.load(std::memory_order_relaxed); }

void* counted_alloc(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc{};
}

void* counted_alloc(std::size_t n, std::align_val_t al) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(al);
  const std::size_t size = (n + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, size ? size : a)) return p;
  throw std::bad_alloc{};
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t al) { return counted_alloc(n, al); }
void* operator new[](std::size_t n, std::align_val_t al) { return counted_alloc(n, al); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

using namespace finbench;
using engine::Engine;
using engine::PricingRequest;
using engine::PricingResult;

namespace {

template <class F>
std::size_t allocations_during(F&& f) {
  const std::size_t before = alloc_count();
  f();
  return alloc_count() - before;
}

}  // namespace

TEST(EngineAlloc, BsChunkedNativeLayoutIsAllocationFree) {
  auto soa = core::make_bs_workload_soa(3 * 16384 + 5, 1);  // several pool chunks
  PricingRequest req;
  req.kernel_id = "bs.intermediate.auto";
  req.portfolio = core::view_of(soa);

  Engine& eng = Engine::shared();
  PricingResult res;
  eng.price(req, res);  // warm-up: scratch, obs handles, result strings
  ASSERT_TRUE(res.status.ok()) << res.status.to_string();

  const std::size_t allocs = allocations_during([&] {
    for (int rep = 0; rep < 10; ++rep) eng.price(req, res);
  });
  ASSERT_TRUE(res.status.ok()) << res.status.to_string();
  EXPECT_EQ(allocs, 0u) << "steady-state chunked BS pricing allocated";
}

TEST(EngineAlloc, BlockedBsChunksAreAllocationFree) {
  core::Portfolio book = core::Portfolio::bs(3 * 16384 + 5, core::Layout::kBsBlocked, 3);
  PricingRequest req;
  req.kernel_id = "blackscholes.blocked.8";
  req.portfolio = book.view();

  Engine& eng = Engine::shared();
  PricingResult res;
  eng.price(req, res);  // warm-up
  ASSERT_TRUE(res.status.ok()) << res.status.to_string();

  const std::size_t allocs = allocations_during([&] {
    for (int rep = 0; rep < 10; ++rep) eng.price(req, res);
  });
  ASSERT_TRUE(res.status.ok()) << res.status.to_string();
  EXPECT_EQ(allocs, 0u) << "steady-state blocked BS pricing allocated";
}

TEST(EngineAlloc, BrownianPathRangesAreAllocationFree) {
  engine::ThreadPool pool(4);
  Engine eng(&pool);
  PricingRequest req;
  req.kernel_id = "brownian.intermediate.auto";
  req.portfolio = core::paths_view(4099);  // a ragged final lane group
  req.bridge_depth = 6;

  PricingResult res;
  eng.price(req, res);  // warm-up: schedule, normals, path pool
  ASSERT_TRUE(res.status.ok()) << res.status.to_string();
  ASSERT_GT(res.chunk_status.size(), 1u);

  const std::size_t allocs = allocations_during([&] {
    for (int rep = 0; rep < 10; ++rep) eng.price(req, res);
  });
  ASSERT_TRUE(res.status.ok()) << res.status.to_string();
  EXPECT_EQ(allocs, 0u) << "steady-state Brownian pricing allocated";
}

TEST(EngineAlloc, NegotiatedAosToSoaIsAllocationFreeAfterFirstConversion) {
  auto aos = core::make_bs_workload_aos(4096, 2);
  PricingRequest req;
  req.kernel_id = "bs.intermediate.auto";  // SOA-native kernel, AOS request
  req.portfolio = core::view_of(aos);

  Engine& eng = Engine::shared();
  PricingResult res;
  eng.price(req, res);  // warm-up: converts AOS->SOA into the request arena
  ASSERT_TRUE(res.status.ok()) << res.status.to_string();
  ASSERT_GT(res.convert_bytes, 0u) << "negotiation did not happen";
  const double first_cost = res.convert_seconds;

  const std::size_t allocs = allocations_during([&] {
    for (int rep = 0; rep < 10; ++rep) eng.price(req, res);
  });
  ASSERT_TRUE(res.status.ok()) << res.status.to_string();
  EXPECT_EQ(allocs, 0u) << "steady-state negotiated pricing allocated";
  // Repetitions report the cached one-time cost, not a fresh conversion.
  EXPECT_EQ(res.convert_seconds, first_cost);
  // The writeback really happened: prices landed back in the AOS arrays.
  double sum = 0.0;
  for (const auto& o : aos.options) sum += o.call;
  EXPECT_GT(sum, 0.0);
}

TEST(EngineAlloc, ChunkedMonteCarloAcrossThePoolIsAllocationFree) {
  const auto workload = core::make_option_workload(48, 7);
  PricingRequest req;
  req.kernel_id = "mc.optimized_stream.auto";
  req.portfolio = core::view_of(std::span<const core::OptionSpec>(workload));
  req.npath = 8192;
  req.chunks_per_thread = 3;

  engine::ThreadPool pool(4);
  Engine eng(&pool);
  for (auto sched : {arch::Schedule::kDynamic, arch::Schedule::kStatic}) {
    req.schedule = sched;
    PricingResult res;
    eng.price(req, res);  // warm-up: normals, chunk bounds, mc buffer
    eng.price(req, res);  // second warm-up: res buffers at final capacity
    ASSERT_TRUE(res.status.ok()) << res.status.to_string();

    const std::size_t allocs = allocations_during([&] {
      for (int rep = 0; rep < 10; ++rep) eng.price(req, res);
    });
    ASSERT_TRUE(res.status.ok()) << res.status.to_string();
    ASSERT_EQ(res.values.size(), workload.size());
    EXPECT_EQ(allocs, 0u) << "steady-state chunked MC allocated (schedule "
                          << (sched == arch::Schedule::kDynamic ? "dynamic" : "static") << ")";
  }
}

// The arena-backed kernel scratch pools (PR5): lattice buffers for the
// binomial family and per-worker RNG chunks for computed-path Monte
// Carlo are carved from the request's kernel arena at negotiation time
// and leased per chunk, so steady-state pricing performs zero heap
// allocations even though each option prices over a (steps+1)-deep
// lattice / kRngChunk-wide draw buffer.
TEST(EngineAlloc, BinomialLatticeScratchIsPooledAfterWarmup) {
  const auto workload = core::make_option_workload(48, 9);
  PricingRequest req;
  req.kernel_id = "binomial.advanced.auto";
  req.portfolio = core::view_of(std::span<const core::OptionSpec>(workload));
  req.steps = 256;
  req.chunks_per_thread = 3;

  engine::ThreadPool pool(4);
  Engine eng(&pool);
  for (auto sched : {arch::Schedule::kDynamic, arch::Schedule::kStatic}) {
    req.schedule = sched;
    PricingResult res;
    eng.price(req, res);  // warm-up: lattice pool, chunk bounds
    eng.price(req, res);  // second warm-up: result buffers at capacity
    ASSERT_TRUE(res.status.ok()) << res.status.to_string();

    const std::size_t allocs = allocations_during([&] {
      for (int rep = 0; rep < 10; ++rep) eng.price(req, res);
    });
    ASSERT_TRUE(res.status.ok()) << res.status.to_string();
    ASSERT_EQ(res.values.size(), workload.size());
    EXPECT_EQ(allocs, 0u) << "steady-state binomial pricing allocated (schedule "
                          << (sched == arch::Schedule::kDynamic ? "dynamic" : "static") << ")";
  }
}

// The nested fork-join layer must preserve the guarantee: deep European
// options decomposing into banded segment tasks lease their per-task work
// rows from the same pooled lattice slots, TaskGroup keeps its closures
// in fixed inline storage, and the pool's task queue is intrusive — so a
// tasked mixed-expiry batch is as allocation-free as a flat one.
TEST(EngineAlloc, TaskedMixedExpiryBinomialIsAllocationFree) {
  const auto workload = core::make_option_workload(48, 11);  // European
  PricingRequest req;
  req.kernel_id = "binomial.advanced.auto";
  req.portfolio = core::view_of(std::span<const core::OptionSpec>(workload));
  req.steps_per_year = 512;  // years up to 3.0: depths cross kMinTaskSteps
  req.tasks = engine::TaskMode::kOn;
  req.chunks_per_thread = 3;

  engine::ThreadPool pool(4);
  Engine eng(&pool);
  PricingResult res;
  eng.price(req, res);  // warm-up: lattice pool, chunk bounds, task counters
  eng.price(req, res);  // second warm-up: result buffers at capacity
  ASSERT_TRUE(res.status.ok()) << res.status.to_string();

  const std::size_t allocs = allocations_during([&] {
    for (int rep = 0; rep < 10; ++rep) eng.price(req, res);
  });
  ASSERT_TRUE(res.status.ok()) << res.status.to_string();
  ASSERT_EQ(res.values.size(), workload.size());
  EXPECT_EQ(allocs, 0u) << "steady-state tasked binomial pricing allocated";
}

// Per-option depths price each option through the W-lane single-option
// kernel, whose node row and parity-split exercise rows come from the same
// pooled lattice slot: a mixed American/European book stays heap-free, at
// 256 steps/yr and with every option at the 16-step floor (1 step/yr). The
// uniform 8-step lattice prices the book's 45 % 8 tail on that kernel too,
// at a depth where its padded rows outgrow a lane group's lattice.
TEST(EngineAlloc, MixedStylePerOptionDepthBinomialIsAllocationFree) {
  auto workload = core::make_option_workload(45, 15);
  for (std::size_t i = 0; i < workload.size(); i += 2) {
    workload[i].style = core::ExerciseStyle::kAmerican;
  }
  engine::ThreadPool pool(4);
  Engine eng(&pool);
  struct Depth {
    int steps_per_year;
    int steps;
  };
  for (const Depth depth : {Depth{256, 0}, Depth{1, 0}, Depth{0, 8}}) {
    for (const char* id : {"binomial.intermediate.auto", "binomial.advanced.auto"}) {
      PricingRequest req;
      req.kernel_id = id;
      req.portfolio = core::view_of(std::span<const core::OptionSpec>(workload));
      req.steps_per_year = depth.steps_per_year;
      if (depth.steps > 0) req.steps = depth.steps;
      req.chunks_per_thread = 3;
      PricingResult res;
      eng.price(req, res);  // warm-up: lattice pool, chunk bounds
      eng.price(req, res);  // second warm-up: result buffers at capacity
      ASSERT_TRUE(res.status.ok()) << res.status.to_string();

      const std::size_t allocs = allocations_during([&] {
        for (int rep = 0; rep < 10; ++rep) eng.price(req, res);
      });
      ASSERT_TRUE(res.status.ok()) << res.status.to_string();
      ASSERT_EQ(res.values.size(), workload.size());
      EXPECT_EQ(allocs, 0u) << "steady-state single-option pricing allocated (" << id
                            << ", steps_per_year " << depth.steps_per_year << ", steps "
                            << req.steps << ")";
    }
  }
}

TEST(EngineAlloc, MonteCarloComputedRngScratchIsPooledAfterWarmup) {
  const auto workload = core::make_option_workload(48, 13);
  PricingRequest req;
  req.kernel_id = "mc.optimized_computed.auto";
  req.portfolio = core::view_of(std::span<const core::OptionSpec>(workload));
  req.npath = 8192;
  req.chunks_per_thread = 3;

  engine::ThreadPool pool(4);
  Engine eng(&pool);
  for (auto sched : {arch::Schedule::kDynamic, arch::Schedule::kStatic}) {
    req.schedule = sched;
    PricingResult res;
    eng.price(req, res);  // warm-up: rng pool, chunk bounds
    eng.price(req, res);
    ASSERT_TRUE(res.status.ok()) << res.status.to_string();

    const std::size_t allocs = allocations_during([&] {
      for (int rep = 0; rep < 10; ++rep) eng.price(req, res);
    });
    ASSERT_TRUE(res.status.ok()) << res.status.to_string();
    ASSERT_EQ(res.values.size(), workload.size());
    EXPECT_EQ(allocs, 0u) << "steady-state computed MC allocated (schedule "
                          << (sched == arch::Schedule::kDynamic ? "dynamic" : "static") << ")";
  }
}

TEST(EngineAlloc, SwitchingWorkloadsRebuildsThenSettles) {
  // A different workload invalidates the negotiation cache (new pointer,
  // new size): the next call may allocate (arena growth, buffer resize),
  // but the state must settle again — the arena reuses its blocks.
  auto aos_a = core::make_bs_workload_aos(1024, 3);
  auto aos_b = core::make_bs_workload_aos(1024, 4);
  PricingRequest req;
  req.kernel_id = "bs.intermediate.auto";

  Engine& eng = Engine::shared();
  PricingResult res;
  req.portfolio = core::view_of(aos_a);
  eng.price(req, res);
  req.portfolio = core::view_of(aos_b);
  eng.price(req, res);  // same size: the reset arena's blocks fit this
  ASSERT_TRUE(res.status.ok()) << res.status.to_string();

  const std::size_t allocs = allocations_during([&] {
    for (int rep = 0; rep < 4; ++rep) {
      req.portfolio = core::view_of(aos_a);
      eng.price(req, res);
      req.portfolio = core::view_of(aos_b);
      eng.price(req, res);
    }
  });
  ASSERT_TRUE(res.status.ok()) << res.status.to_string();
  // Each switch re-converts (the cache keys on the source pointer) but
  // into reused arena blocks — still no heap traffic.
  EXPECT_EQ(allocs, 0u);
}
