// Tests for the kernel registry and batched pricing engine: id hygiene and
// metadata invariants, registry self-validation, chunked-vs-whole-batch
// equivalence (the RNG-substream and lattice adapters must make chunking
// invisible), scheduling knobs, the dynamic-schedule imbalance win on a
// maturity-sorted heterogeneous portfolio, and Black–Scholes chunks on the
// pool (bitwise parity, fused sanitize/guard, faults, deadlines).

#include <dirent.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "finbench/arch/parallel.hpp"
#include "finbench/core/analytic.hpp"
#include "finbench/core/portfolio.hpp"
#include "finbench/core/workload.hpp"
#include "finbench/engine/engine.hpp"
#include "finbench/engine/registry.hpp"
#include "finbench/engine/validate.hpp"
#include "finbench/obs/metrics.hpp"
#include "finbench/robust/denormal.hpp"
#include "finbench/robust/guards.hpp"
#include "finbench/robust/sanitize.hpp"

using namespace finbench;
using engine::Engine;
using engine::PricingRequest;
using engine::PricingResult;
using engine::Registry;

namespace {

std::vector<core::OptionSpec> lattice_workload(std::size_t n, std::uint64_t seed,
                                               bool american = false) {
  core::SingleOptionWorkloadParams p;
  p.style = american ? core::ExerciseStyle::kAmerican : core::ExerciseStyle::kEuropean;
  return core::make_option_workload(n, seed, p);
}

}  // namespace

TEST(Registry, HasTheFullVariantCatalog) {
  const auto& r = Registry::instance();
  EXPECT_GE(r.size(), 20u);  // the CI smoke gate
  // One family per paper exhibit.
  for (const char* id :
       {"bs.intermediate.avx2", "binomial.advanced.auto", "mc.optimized_computed.auto",
        "brownian.intermediate.auto", "cn.wavefront_split.auto"}) {
    EXPECT_NE(r.find(id), nullptr) << id;
  }
  EXPECT_EQ(r.find("bs.nonexistent.scalar"), nullptr);
}

TEST(Registry, IdsAreWellFormedAndMetadataIsComplete) {
  for (const engine::VariantInfo* v : Registry::instance().all()) {
    // id = "<kernel>.<variant>.<scalar|avx2|auto>". The register-tiled
    // blocked families use the suffix for their lane count instead
    // (4/8 DP, 8f/16f SP), and the Black–Scholes one additionally spells
    // its kernel out ("blackscholes.blocked.*", "blackscholes.blocked_fused.*").
    EXPECT_EQ(std::count(v->id.begin(), v->id.end(), '.'), 2) << v->id;
    const bool blocked_bs =
        v->kernel == "bs" && (v->id.rfind("blackscholes.blocked.", 0) == 0 ||
                              v->id.rfind("blackscholes.blocked_fused.", 0) == 0);
    const bool blocked = blocked_bs || v->id.rfind("binomial.blocked.", 0) == 0;
    if (!blocked_bs) EXPECT_EQ(v->id.rfind(v->kernel + ".", 0), 0u) << v->id;
    const std::string suffix = v->id.substr(v->id.rfind('.') + 1);
    EXPECT_TRUE(suffix == "scalar" || suffix == "avx2" || suffix == "auto" ||
                (blocked && (suffix == "4" || suffix == "8" || suffix == "8f" ||
                             suffix == "16f")))
        << v->id;
    EXPECT_NE(v->run_batch, nullptr) << v->id;
    EXPECT_NE(v->run_range, nullptr) << v->id;
    EXPECT_FALSE(v->description.empty()) << v->id;
    EXPECT_FALSE(v->exhibit.empty()) << v->id;
    EXPECT_NE(v->flops_per_item, nullptr) << v->id;
    if (v->reference_id.empty()) {
      EXPECT_EQ(v->level, core::OptLevel::kReference) << v->id;
    } else {
      const engine::VariantInfo* ref = Registry::instance().find(v->reference_id);
      ASSERT_NE(ref, nullptr) << v->id << " links to unknown " << v->reference_id;
      EXPECT_EQ(ref->kernel, v->kernel) << v->id;
      // The bs family legitimately crosses layouts (AOS reference vs SOA /
      // single-precision optimized forms); the validator rebuilds each
      // batch form from one seed. Everyone else must match the reference.
      if (v->kernel != "bs") EXPECT_EQ(ref->layout, v->layout) << v->id;
      EXPECT_GT(v->tolerance, 0.0) << v->id;
    }
  }
}

TEST(Registry, SelfValidationPasses) {
  for (const auto& rep : engine::validate_all(/*nopt=*/48)) {
    EXPECT_TRUE(rep.ok || rep.skipped) << rep.id << ": " << rep.detail;
  }
}

TEST(Engine, UnknownKernelIdIsAnError) {
  PricingRequest req;
  req.kernel_id = "bs.nonexistent.scalar";
  const PricingResult res = Engine::shared().price(req);
  EXPECT_FALSE(res.status.ok());
  EXPECT_NE(res.status.message().find("unknown kernel id"), std::string::npos)
      << res.status.to_string();
}

TEST(Engine, MissingWorkloadIsAnError) {
  PricingRequest req;
  req.kernel_id = "binomial.reference.scalar";  // kSpecs layout, but no specs
  const PricingResult res = Engine::shared().price(req);
  EXPECT_FALSE(res.status.ok());
  EXPECT_FALSE(res.status.message().empty());
}

// Chunked engine execution must be numerically invisible: the same values
// as one whole-batch call, for both schedules. Lattice and PDE kernels are
// deterministic per option; the computed-RNG MC adapter re-bases its Philox
// substreams on the chunk offset to draw identical numbers.
TEST(Engine, ChunkedExecutionMatchesWholeBatch) {
  engine::ThreadPool pool(4);
  Engine eng(&pool);

  struct Case {
    const char* id;
    bool american;
  };
  for (const auto& c : std::initializer_list<Case>{{"binomial.intermediate.auto", true},
                                                   {"cn.wavefront_split.auto", true},
                                                   {"mc.optimized_computed.auto", false}}) {
    const auto workload = lattice_workload(33, 11, c.american);
    PricingRequest req;
    req.kernel_id = c.id;
    req.portfolio = core::view_of(std::span<const core::OptionSpec>(workload));
    req.steps = 128;
    req.npath = 4096;
    req.cn_num_prices = 65;
    req.chunks_per_thread = 3;  // force several chunks over 33 options

    const engine::VariantInfo* v = Registry::instance().find(c.id);
    ASSERT_NE(v, nullptr);
    PricingResult whole;
    v->run_batch(req, req.portfolio, whole);
    ASSERT_TRUE(whole.status.ok());

    for (auto sched : {arch::Schedule::kDynamic, arch::Schedule::kStatic}) {
      req.schedule = sched;
      const PricingResult res = eng.price(req);
      ASSERT_TRUE(res.status.ok()) << c.id << ": " << res.status.to_string();
      ASSERT_EQ(res.values.size(), workload.size()) << c.id;
      for (std::size_t i = 0; i < workload.size(); ++i) {
        EXPECT_EQ(res.values[i], whole.values[i]) << c.id << " item " << i;
      }
    }
  }
}

TEST(Engine, HeterogeneousStepsPerYearPricesEachExpiryAtItsOwnDepth) {
  const auto workload = lattice_workload(9, 3);
  PricingRequest req;
  req.kernel_id = "binomial.reference.scalar";
  req.portfolio = core::view_of(std::span<const core::OptionSpec>(workload));
  req.steps_per_year = 64;
  const PricingResult res = Engine::shared().price(req);
  ASSERT_TRUE(res.status.ok()) << res.status.to_string();

  // Longer-dated options get deeper lattices, so the result must differ
  // from a fixed-depth batch for at least one option.
  PricingRequest fixed = req;
  fixed.steps_per_year = 0;
  fixed.scratch.reset();
  const PricingResult res_fixed = Engine::shared().price(fixed);
  ASSERT_TRUE(res_fixed.status.ok());
  bool any_diff = false;
  for (std::size_t i = 0; i < workload.size(); ++i) {
    any_diff = any_diff || res.values[i] != res_fixed.values[i];
  }
  EXPECT_TRUE(any_diff);
}

// A Black–Scholes request in its native layout prices straight into the
// request's batch arrays (values stays empty).
TEST(Engine, BatchLayoutFallsThroughToNativeKernel) {
  auto soa = core::make_bs_workload_soa(512, 21);
  PricingRequest req;
  req.kernel_id = "bs.intermediate.auto";
  req.portfolio = core::view_of(soa);
  const PricingResult res = Engine::shared().price(req);
  ASSERT_TRUE(res.status.ok()) << res.status.to_string();
  EXPECT_EQ(res.items, 512u);
  EXPECT_TRUE(res.values.empty());
  // Spot-check the outputs actually landed in the batch arrays.
  double sum = 0.0;
  for (double c : soa.call) sum += c;
  EXPECT_GT(sum, 0.0);
}

TEST(Engine, RepeatedPricingOfOneRequestIsDeterministic) {
  const auto workload = lattice_workload(8, 17);
  PricingRequest req;
  req.kernel_id = "mc.optimized_computed.auto";
  req.portfolio = core::view_of(std::span<const core::OptionSpec>(workload));
  req.npath = 4096;
  const PricingResult a = Engine::shared().price(req);
  const PricingResult b = Engine::shared().price(req);  // scratch reused
  ASSERT_TRUE(a.status.ok() && b.status.ok());
  ASSERT_EQ(a.values.size(), b.values.size());
  for (std::size_t i = 0; i < a.values.size(); ++i) EXPECT_EQ(a.values[i], b.values[i]) << i;
}

// The acceptance demonstration: on a maturity-sorted lattice portfolio with
// per-option depth (cost ramps quadratically across the batch), dynamic
// ticket scheduling spreads the heavy tail while static contiguous stripes
// pin it to the last participants.
TEST(Engine, DynamicScheduleReducesImbalanceOnSortedMixedExpiryPortfolio) {
  auto workload = lattice_workload(256, 29);
  std::sort(workload.begin(), workload.end(),
            [](const core::OptionSpec& a, const core::OptionSpec& b) { return a.years < b.years; });

  engine::ThreadPool pool(4);
  Engine eng(&pool);
  PricingRequest req;
  req.kernel_id = "binomial.intermediate.auto";
  req.portfolio = core::view_of(std::span<const core::OptionSpec>(workload));
  // Deep enough that one pricing spans several OS scheduling quanta — on a
  // single-core host a too-short run lets whichever thread holds the CPU
  // drain the ticket counter alone, which says nothing about the schedule.
  // Here that is about 30 ms per pricing on a 4-vCPU AVX-512 host.
  req.steps_per_year = 1024;

  obs::enable_parallel_timing();
  obs::reset_metrics();
  for (int rep = 0; rep < 2; ++rep) {
    req.schedule = arch::Schedule::kStatic;
    ASSERT_TRUE(eng.price(req).status.ok());
    req.schedule = arch::Schedule::kDynamic;
    ASSERT_TRUE(eng.price(req).status.ok());
  }
  obs::enable_parallel_timing(false);

  double stat = 0.0, dyn = 0.0;
  for (const auto& [name, s] : obs::snapshot_metrics().stats) {
    if (name == "parallel.engine.static.imbalance" && s.count > 0) stat = s.mean;
    if (name == "parallel.engine.dynamic.imbalance" && s.count > 0) dyn = s.mean;
  }
  ASSERT_GT(stat, 0.0);
  ASSERT_GT(dyn, 0.0);
  if (stat < 1.3) GTEST_SKIP() << "static skew did not manifest (imbalance " << stat << ")";
  EXPECT_LT(dyn, stat) << "dynamic=" << dyn << " static=" << stat;
}

// --- Black–Scholes chunks on the engine pool ---------------------------------

namespace {

using robust::SanitizePolicy;
using robust::StatusCode;

// The engine's Black–Scholes chunk: a request of at least kChunk options
// per pool participant is priced in kChunk-option chunks.
constexpr std::size_t kChunk = 16384;

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }
bool same_bits(float a, float b) { return std::memcmp(&a, &b, sizeof a) == 0; }

// Runs f on the calling thread under the engine pool's FP treatment
// (FTZ+DAZ), so a range body computes exactly as the engine's chunks do.
template <class F>
void as_pool_participant(F&& f) {
  const std::uint32_t fp = robust::save_fp_state();
  robust::install_denormal_ftz();
  f();
  robust::restore_fp_state(fp);
}

// The serial reference the chunked results must match bitwise: v's range
// body over all of `view` on the calling thread, under the pool's FP
// treatment, prepared as the engine prepares a member. `outputs` sizes
// res.values (0 for the Black–Scholes layouts, which price in place).
PricingResult run_range_serial(const engine::VariantInfo& v, const PricingRequest& req,
                               const core::PortfolioView& view, std::size_t outputs = 0) {
  PricingResult res;
  res.values.assign(outputs, 0.0);
  if (v.has_std_error) res.std_errors.assign(view.size(), 0.0);
  as_pool_participant([&] {
    if (v.prepare) v.prepare(req, view);
    v.run_range(req, view, 0, view.size(), res);
  });
  return res;
}

}  // namespace

TEST(EngineBsChunks, SoaMatchesDirectKernelBitwiseAcrossChunkEdges) {
  engine::ThreadPool pool(4);
  Engine eng(&pool);
  for (std::size_t n : {std::size_t{1}, std::size_t{7}, std::size_t{8}, std::size_t{9},
                        kChunk - 1, kChunk + 1, (std::size_t{1} << 20) + 3}) {
    for (double dividend : {0.0, 0.03}) {
      auto direct = core::make_bs_workload_soa(n, 41);
      direct.dividend = dividend;
      auto priced = direct;

      PricingRequest req;
      req.kernel_id = "bs.intermediate.auto";
      run_range_serial(*Registry::instance().find(req.kernel_id), req, core::view_of(direct));
      req.portfolio = core::view_of(priced);
      const PricingResult res = eng.price(req);
      ASSERT_TRUE(res.status.ok()) << n << ": " << res.status.to_string();
      EXPECT_EQ(res.items, n);
      if (n > 4 * kChunk) {
        EXPECT_EQ(res.chunk_status.size(), (n + kChunk - 1) / kChunk);
      }
      std::size_t diff = 0;
      for (std::size_t i = 0; i < n; ++i) {
        diff += !same_bits(priced.call[i], direct.call[i]) ||
                !same_bits(priced.put[i], direct.put[i]);
      }
      EXPECT_EQ(diff, 0u) << "n=" << n << " dividend=" << dividend;
    }
  }

  // The other in-place rows, in their native layouts: the engine's chunks
  // (pools of 1 and 4) land bitwise where one serial range over the book
  // does.
  engine::ThreadPool one(1);
  Engine eng1(&one);
  for (const char* id :
       {"bs.reference.scalar", "bs.basic.auto", "bs.advanced_vml.avx2", "bs.advanced_vml.auto",
        "blackscholes.blocked_fused.8f", "blackscholes.blocked_fused.16f",
        "blackscholes.blocked.4", "blackscholes.blocked.8", "blackscholes.blocked.8f",
        "blackscholes.blocked.16f", "binomial.blocked.4", "binomial.blocked.8",
        "binomial.blocked_gather.scalar"}) {
    const engine::VariantInfo* v = Registry::instance().find(id);
    ASSERT_NE(v, nullptr) << id;
    ASSERT_NE(v->run_range, nullptr) << id;
    // The blocked lattices price a 64-step lattice pair per option, on
    // books capped at kChunk + 1 options.
    const bool lattice = v->kernel == "binomial";
    for (std::size_t n : {std::size_t{1}, std::size_t{7}, std::size_t{9}, kChunk - 1,
                          kChunk + 1, (std::size_t{1} << 20) + 3}) {
      if (lattice && n > kChunk + 1) continue;
      core::Portfolio direct = core::Portfolio::bs(n, v->layout, 59);
      PricingRequest req;
      req.kernel_id = id;
      req.portfolio = direct.view();
      req.steps = 64;
      run_range_serial(*v, req, direct.view());
      for (const Engine* e : {&eng1, &eng}) {
        core::Portfolio priced = core::Portfolio::bs(n, v->layout, 59);
        req.portfolio = priced.view();
        const PricingResult res = e->price(req);
        ASSERT_TRUE(res.status.ok()) << id << " n=" << n << ": " << res.status.to_string();
        EXPECT_EQ(res.items, n);
        std::size_t diff = 0;
        for (std::size_t i = 0; i < n; ++i) {
          const robust::BsElem a = robust::bs_elem(priced.view(), i);
          const robust::BsElem b = robust::bs_elem(direct.view(), i);
          diff += !same_bits(a.call, b.call) || !same_bits(a.put, b.put);
        }
        EXPECT_EQ(diff, 0u) << id << " n=" << n << " pool=" << e->pool_size();
      }
    }
  }
}

// Brownian rows on the pool (pools of 1 and 4, both schedules, odd path
// counts that leave a ragged final lane group): every chunked construction
// lands bitwise where one serial range over all paths does.
TEST(Engine, ChunkedPathConstructionMatchesWholeBatch) {
  engine::ThreadPool pool(4), one(1);
  Engine eng(&pool), eng1(&one);
  for (const char* id : {"brownian.reference.scalar", "brownian.basic.scalar",
                         "brownian.intermediate.avx2", "brownian.intermediate.auto",
                         "brownian.advanced_interleaved.auto", "brownian.advanced_fused.auto"}) {
    const engine::VariantInfo* v = Registry::instance().find(id);
    ASSERT_NE(v, nullptr) << id;
    for (std::size_t nsim : {std::size_t{1}, std::size_t{7}, std::size_t{1001},
                             std::size_t{4099}}) {
      PricingRequest req;
      req.kernel_id = id;
      req.portfolio = core::paths_view(nsim);
      req.bridge_depth = 5;
      req.chunks_per_thread = 3;
      // Whole paths of 2^5 + 1 points, or one average per path.
      const std::size_t outputs =
          v->id == "brownian.advanced_fused.auto" ? nsim : nsim * ((1u << 5) + 1);
      const PricingResult whole = run_range_serial(*v, req, req.portfolio, outputs);
      for (const Engine* e : {&eng1, &eng}) {
        for (auto sched : {arch::Schedule::kDynamic, arch::Schedule::kStatic}) {
          req.schedule = sched;
          const PricingResult res = e->price(req);
          ASSERT_TRUE(res.status.ok()) << id << " nsim=" << nsim << ": " << res.status.to_string();
          EXPECT_EQ(res.items, nsim);
          ASSERT_EQ(res.values.size(), whole.values.size()) << id;
          std::size_t diff = 0;
          for (std::size_t i = 0; i < whole.values.size(); ++i) {
            diff += !same_bits(res.values[i], whole.values[i]);
          }
          EXPECT_EQ(diff, 0u) << id << " nsim=" << nsim << " pool=" << e->pool_size();
        }
      }
    }
  }
}

namespace {

// Threads of this process, as /proc/self/task lists them.
std::size_t thread_count() {
  std::size_t n = 0;
  if (DIR* d = opendir("/proc/self/task")) {
    while (const dirent* e = readdir(d)) n += e->d_name[0] != '.';
    closedir(d);
  }
  return n;
}

}  // namespace

// The engine path has one threading runtime: every registered variant's
// run_range is free of OpenMP. Each id prices a small book in its native
// layout (binomial specs rows also at per-option depths; tasks off and on) through
// engines on pools of 1 and 4, from a fresh thread with the default OpenMP
// ICV. An OpenMP team formed by any participant, the inline one-participant
// path included, or by the engine sizing its scratch from the thread count,
// would leave its threads behind, so the process must have grown by exactly
// the pools' 3 workers.
TEST(Engine, RangeBodiesFormNoOpenMPTeam) {
  ASSERT_GT(thread_count(), 0u);
  std::thread([] {
    const std::size_t before = thread_count();
    engine::ThreadPool one(1), four(4);
    Engine eng1(&one), eng4(&four);
    ASSERT_EQ(thread_count(), before + 3);
    for (const engine::VariantInfo* v : Registry::instance().all()) {
      PricingRequest req;
      req.kernel_id = v->id;
      req.steps = 64;
      req.npath = 4096;
      req.cn_num_prices = 33;
      req.bridge_depth = 5;
      core::Portfolio bs_book;
      std::vector<core::OptionSpec> specs;
      if (v->layout == engine::Layout::kPaths) {
        req.portfolio = core::paths_view(1001);
      } else if (v->layout == engine::Layout::kSpecs) {
        specs = lattice_workload(37, 3, !v->european_only);
        req.portfolio = core::view_of(std::span<const core::OptionSpec>(specs));
      } else {
        bs_book = core::Portfolio::bs(5000, v->layout, 3);
        req.portfolio = bs_book.view();
      }
      const bool depths = v->kernel == "binomial" && v->layout == engine::Layout::kSpecs;
      for (int spy : {0, 256}) {
        if (spy > 0 && !depths) continue;
        req.steps_per_year = spy;
        for (auto tasks : {engine::TaskMode::kOff, engine::TaskMode::kOn}) {
          req.tasks = tasks;
          for (const Engine* e : {&eng1, &eng4}) {
            const PricingResult res = e->price(req);
            EXPECT_TRUE(res.status.ok()) << v->id << ": " << res.status.to_string();
          }
        }
      }
    }
    EXPECT_EQ(thread_count(), before + 3) << "an OpenMP team formed on the engine path";
  }).join();
}

TEST(EngineBsChunks, SinglePrecisionSoaMatchesDirectKernelBitwise) {
  engine::ThreadPool pool(4);
  Engine eng(&pool);
  for (std::size_t n : {std::size_t{1}, std::size_t{7}, std::size_t{8}, std::size_t{9},
                        kChunk - 1, kChunk + 1, (std::size_t{1} << 20) + 3}) {
    auto direct = core::to_single(core::make_bs_workload_soa(n, 43));
    auto priced = direct;

    PricingRequest req;
    req.kernel_id = "bs.intermediate_sp.auto";
    run_range_serial(*Registry::instance().find(req.kernel_id), req, core::view_of(direct));
    req.portfolio = core::view_of(priced);
    const PricingResult res = eng.price(req);
    ASSERT_TRUE(res.status.ok()) << n << ": " << res.status.to_string();
    std::size_t diff = 0;
    for (std::size_t i = 0; i < n; ++i) {
      diff += !same_bits(priced.call[i], direct.call[i]) ||
              !same_bits(priced.put[i], direct.put[i]);
    }
    EXPECT_EQ(diff, 0u) << "n=" << n;
  }
}

// Faulty spots planted in the first, a middle and the last chunk: the
// chunked path (input check per chunk, sanitizer on demand, re-run of the
// flagged chunks) must land exactly where the serial sequence
// sanitize -> run_range -> guard_and_repair_bs does.
TEST(EngineBsChunks, FaultyBooksMatchTheSerialSanitizeKernelGuardSequence) {
  const std::size_t n = 3 * kChunk + 100;
  const std::size_t planted[] = {5, kChunk + 11, n - 3};
  const double bad_spots[] = {std::numeric_limits<double>::quiet_NaN(), -42.0, 1e-310};
  const engine::VariantInfo* v = Registry::instance().find("bs.intermediate.auto");
  ASSERT_NE(v, nullptr);
  engine::ThreadPool pool(4);
  Engine eng(&pool);

  for (SanitizePolicy policy :
       {SanitizePolicy::kSkip, SanitizePolicy::kClamp, SanitizePolicy::kReject}) {
    for (double bad : bad_spots) {
      auto book = core::make_bs_workload_soa(n, 47);
      for (std::size_t i : planted) book.spot[i] = bad;
      auto serial = book;

      PricingRequest req;
      req.kernel_id = v->id;
      req.portfolio = core::view_of(book);
      req.sanitize = policy;
      const PricingResult res = eng.price(req);

      // The serial sequence, under the pool's FP treatment.
      core::PortfolioView sv = core::view_of(serial);
      robust::SanitizeReport san;
      robust::sanitize(sv, policy, san);
      std::size_t repaired = 0;
      if (policy != SanitizePolicy::kReject) {
        run_range_serial(*v, req, sv);
        repaired = robust::guard_and_repair_bs(sv, robust::GuardPolicy{}, san.mask);
        for (std::size_t i = 0; i < san.mask.size(); ++i) {
          if (san.mask[i] & robust::kFaultSkipped) {
            serial.call[i] = serial.put[i] = std::numeric_limits<double>::quiet_NaN();
          }
        }
      }

      const std::string what = std::string(robust::to_string(policy)) + " spot=" +
                               std::to_string(bad);
      EXPECT_EQ(res.status.code(),
                policy == SanitizePolicy::kReject ? StatusCode::kInvalidInput
                                                  : StatusCode::kDegraded)
          << what;
      EXPECT_EQ(res.option_faults, san.mask) << what;
      EXPECT_EQ(res.options_clamped, san.clamped) << what;
      EXPECT_EQ(res.options_skipped, san.skipped) << what;
      EXPECT_EQ(res.options_repaired, repaired) << what;
      std::size_t diff = 0;
      for (std::size_t i = 0; i < n; ++i) {
        diff += !same_bits(book.spot[i], serial.spot[i]) ||
                !same_bits(book.call[i], serial.call[i]) ||
                !same_bits(book.put[i], serial.put[i]);
      }
      EXPECT_EQ(diff, 0u) << what;
    }
  }
}

// The deferred scan also holds when the chunks price a negotiated copy:
// an AOS book with poisoned spots lands exactly where the same book in the
// kernel's native SOA layout does, repairs included.
TEST(EngineBsChunks, NegotiatedFaultyBookMatchesTheNativeLayout) {
  const std::size_t n = 2 * kChunk + 40;
  auto aos = core::make_bs_workload_aos(n, 71);
  aos.options[3].spot = std::numeric_limits<double>::quiet_NaN();
  aos.options[n - 2].spot = -1.0;
  auto soa = core::to_soa(aos);
  engine::ThreadPool pool(4);
  Engine eng(&pool);
  for (SanitizePolicy policy : {SanitizePolicy::kSkip, SanitizePolicy::kClamp}) {
    auto aos_book = aos;
    auto soa_book = soa;
    PricingRequest on_aos, on_soa;
    on_aos.kernel_id = on_soa.kernel_id = "bs.intermediate.auto";
    on_aos.sanitize = on_soa.sanitize = policy;
    on_aos.portfolio = core::view_of(aos_book);
    on_soa.portfolio = core::view_of(soa_book);
    const PricingResult a = eng.price(on_aos);
    const PricingResult b = eng.price(on_soa);
    EXPECT_EQ(a.status.code(), b.status.code());
    EXPECT_EQ(a.option_faults, b.option_faults);
    EXPECT_EQ(a.options_clamped, b.options_clamped);
    EXPECT_EQ(a.options_skipped, b.options_skipped);
    std::size_t diff = 0;
    for (std::size_t i = 0; i < n; ++i) {
      diff += !same_bits(aos_book.options[i].spot, soa_book.spot[i]) ||
              !same_bits(aos_book.options[i].call, soa_book.call[i]) ||
              !same_bits(aos_book.options[i].put, soa_book.put[i]);
    }
    EXPECT_EQ(diff, 0u) << robust::to_string(policy);
  }
}

TEST(EngineBsChunks, CorruptedOutputsAreRepairedPerChunk) {
  const std::size_t n = 4 * kChunk + 5;
  auto book = core::make_bs_workload_soa(n, 53);
  engine::ThreadPool pool(4);
  Engine eng(&pool);
  PricingRequest req;
  req.kernel_id = "bs.intermediate.auto";
  req.portfolio = core::view_of(book);
  req.faults.seed = 5;
  req.faults.corrupt = 0.001;
  const PricingResult res = eng.price(req);

  std::size_t corrupted = 0;
  for (std::size_t i = 0; i < n; ++i) corrupted += req.faults.hits(1, i, req.faults.corrupt);
  ASSERT_GT(corrupted, 0u);
  EXPECT_EQ(res.status.code(), StatusCode::kDegraded) << res.status.to_string();
  EXPECT_EQ(res.options_repaired, corrupted);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(std::isfinite(book.call[i]) && std::isfinite(book.put[i])) << i;
    if (!req.faults.hits(1, i, req.faults.corrupt)) continue;
    const core::BsPrice p = core::black_scholes(book.spot[i], book.strike[i], book.years[i],
                                                book.rate, book.vol, book.dividend);
    EXPECT_EQ(book.call[i], p.call) << i;
    EXPECT_EQ(book.put[i], p.put) << i;
  }
}

TEST(EngineBsChunks, ThrownChunksAreRepairedThroughTheClosedForm) {
  const std::size_t n = 6 * kChunk + 9;
  auto book = core::make_bs_workload_soa(n, 59);
  engine::ThreadPool pool(4);
  Engine eng(&pool);
  PricingRequest req;
  req.kernel_id = "bs.intermediate.auto";
  req.portfolio = core::view_of(book);
  req.faults.seed = 3;
  req.faults.throw_rate = 0.5;
  const PricingResult res = eng.price(req);

  const std::size_t nchunks = (n + kChunk - 1) / kChunk;
  ASSERT_EQ(res.chunk_status.size(), nchunks);
  std::size_t thrown = 0, thrown_items = 0;
  for (std::size_t c = 0; c < nchunks; ++c) {
    const bool hit = req.faults.hits(2, c, req.faults.throw_rate);
    EXPECT_EQ(static_cast<engine::ChunkStatus>(res.chunk_status[c]),
              hit ? engine::ChunkStatus::kDegraded : engine::ChunkStatus::kOk)
        << c;
    thrown += hit;
    if (hit) thrown_items += std::min(n, (c + 1) * kChunk) - c * kChunk;
  }
  ASSERT_GT(thrown, 0u) << "pick a seed that throws somewhere";
  ASSERT_LT(thrown, nchunks);
  EXPECT_EQ(res.status.code(), StatusCode::kDegraded) << res.status.to_string();
  EXPECT_EQ(res.chunks_degraded, thrown);
  EXPECT_EQ(res.options_repaired, thrown_items);
  EXPECT_EQ(res.items, n);
  for (std::size_t i = 0; i < n; ++i) {
    const core::BsPrice p = core::black_scholes(book.spot[i], book.strike[i], book.years[i],
                                                book.rate, book.vol, book.dividend);
    ASSERT_NEAR(book.call[i], p.call, 1e-9 * std::max(1.0, std::abs(p.call))) << i;
    ASSERT_NEAR(book.put[i], p.put, 1e-9 * std::max(1.0, std::abs(p.put))) << i;
  }
}

// One participant, chunks in order, the first one slowed past the
// deadline: every chunk after it is left unrun, its outputs NaN.
TEST(EngineBsChunks, DeadlineLeavesUnrunChunksNaN) {
  const std::size_t n = 3 * kChunk + 7;
  auto book = core::make_bs_workload_soa(n, 61);
  std::fill(book.call.begin(), book.call.end(), 1.0);
  std::fill(book.put.begin(), book.put.end(), 1.0);
  engine::ThreadPool pool(1);
  Engine eng(&pool);
  PricingRequest req;
  req.kernel_id = "bs.intermediate.auto";
  req.portfolio = core::view_of(book);
  req.faults.seed = 1;
  req.faults.slow = 1.0;
  req.faults.slow_ms = 60.0;
  req.deadline_seconds = 0.02;
  const PricingResult res = eng.price(req);

  EXPECT_EQ(res.status.code(), StatusCode::kDeadlineExceeded) << res.status.to_string();
  ASSERT_EQ(res.chunk_status.size(), 4u);
  EXPECT_EQ(static_cast<engine::ChunkStatus>(res.chunk_status.back()),
            engine::ChunkStatus::kDeadline);
  std::size_t priced = 0, skipped = 0;
  for (std::size_t c = 0; c < res.chunk_status.size(); ++c) {
    const auto st = static_cast<engine::ChunkStatus>(res.chunk_status[c]);
    ASSERT_TRUE(st == engine::ChunkStatus::kOk || st == engine::ChunkStatus::kDeadline) << c;
    const std::size_t end = std::min(n, (c + 1) * kChunk);
    for (std::size_t i = c * kChunk; i < end; ++i) {
      ASSERT_EQ(std::isnan(book.call[i]) && std::isnan(book.put[i]),
                st == engine::ChunkStatus::kDeadline)
          << i;
    }
    if (st == engine::ChunkStatus::kOk) priced += end - c * kChunk;
    if (st == engine::ChunkStatus::kDeadline) ++skipped;
  }
  EXPECT_EQ(res.items, priced);
  EXPECT_EQ(res.chunks_deadline, skipped);

  // A path result reused by the same request keeps its buffer between
  // executions: a second execution cut short by the deadline still leaves
  // no value of the first behind. Each path (points at values[c * nsim +
  // s]) is either NaN throughout or rewritten, and the NaN paths are
  // exactly the ones the deadline left unpriced.
  const std::size_t nsim = 4099, points = (1u << 5) + 1;
  PricingRequest paths;
  paths.kernel_id = "brownian.intermediate.auto";
  paths.portfolio = core::paths_view(nsim);
  paths.bridge_depth = 5;
  PricingResult reused;
  eng.price(paths, reused);
  ASSERT_TRUE(reused.status.ok()) << reused.status.to_string();
  ASSERT_EQ(reused.values.size(), nsim * points);
  const std::vector<double> first = reused.values;
  const double* buffer = reused.values.data();
  paths.faults = req.faults;
  paths.deadline_seconds = req.deadline_seconds;
  eng.price(paths, reused);
  EXPECT_EQ(reused.status.code(), StatusCode::kDeadlineExceeded)
      << reused.status.to_string();
  ASSERT_GT(reused.chunks_deadline, 0u);
  ASSERT_EQ(reused.values.size(), nsim * points);
  EXPECT_EQ(reused.values.data(), buffer);
  std::size_t unpriced = 0;
  for (std::size_t p = 0; p < nsim; ++p) {
    const bool nan = std::isnan(reused.values[p]);
    unpriced += nan;
    for (std::size_t c = 0; c < points; ++c) {
      const double x = reused.values[c * nsim + p];
      ASSERT_TRUE(nan ? std::isnan(x) : same_bits(x, first[c * nsim + p])) << p << "," << c;
    }
  }
  EXPECT_GT(unpriced, 0u);
  EXPECT_EQ(reused.items + unpriced, nsim);
}

// The negotiation cache keys on the caller's data pointer: a reused AOS
// request whose spots change in place must still price the new spots.
// Members are priced in their own views, so requests on different
// (rate, vol, dividend) curves fuse, and each member's prices are bitwise
// its solo prices, across chunk edges that fall inside members.
TEST(EngineGroup, MembersOnDifferentCurvesFuseAndPriceAsSolo) {
  engine::ThreadPool pool(4);
  Engine eng(&pool);
  const std::size_t sizes[] = {1003, 20000, 37};
  const double rates[] = {0.02, 0.05, 0.01}, vols[] = {0.2, 0.35, 0.15};
  const double dividends[] = {0.0, 0.03, 0.01};
  std::vector<core::BsBatchSoa> books, alone;
  for (std::size_t m = 0; m < 3; ++m) {
    books.push_back(core::make_bs_workload_soa(sizes[m], 83 + m));
    books.back().rate = rates[m];
    books.back().vol = vols[m];
    books.back().dividend = dividends[m];
  }
  alone = books;
  std::vector<PricingRequest> reqs(3);
  std::vector<PricingResult> res(3);
  std::vector<engine::GroupJob> group;
  for (std::size_t m = 0; m < 3; ++m) {
    reqs[m].kernel_id = "bs.intermediate.auto";
    reqs[m].portfolio = core::view_of(books[m]);
    group.push_back({&reqs[m], &res[m]});
  }
  ASSERT_TRUE(Engine::fusable(reqs[0], reqs[1]));
  ASSERT_TRUE(Engine::fusable(reqs[0], reqs[2]));
  engine::GroupScratch gs;
  eng.price_group(group, gs);

  for (std::size_t m = 0; m < 3; ++m) {
    ASSERT_EQ(res[m].status.code(), StatusCode::kOk) << m << ": " << res[m].status.to_string();
    EXPECT_EQ(res[m].request_id, res[0].request_id);
    PricingRequest solo;
    solo.kernel_id = "bs.intermediate.auto";
    solo.portfolio = core::view_of(alone[m]);
    ASSERT_TRUE(eng.price(solo).status.ok());
    std::size_t diff = 0;
    for (std::size_t i = 0; i < sizes[m]; ++i) {
      diff += !same_bits(books[m].call[i], alone[m].call[i]) ||
              !same_bits(books[m].put[i], alone[m].put[i]);
    }
    EXPECT_EQ(diff, 0u) << "member " << m;
  }
}

// Each member negotiates through its own Scratch, so an AOS and an SOA
// request for the same SOA kernel fuse, and each prices bitwise as solo.
TEST(EngineGroup, MembersInDifferentLayoutsFuseAndPriceAsSolo) {
  engine::ThreadPool pool(4);
  Engine eng(&pool);
  const std::size_t sizes[] = {20001, 1003};
  core::Portfolio books[] = {core::Portfolio::bs(sizes[0], core::Layout::kBsAos, 89),
                             core::Portfolio::bs(sizes[1], core::Layout::kBsSoa, 90)};
  core::Portfolio alone[] = {core::Portfolio::bs(sizes[0], core::Layout::kBsAos, 89),
                             core::Portfolio::bs(sizes[1], core::Layout::kBsSoa, 90)};
  std::vector<PricingRequest> reqs(2);
  std::vector<PricingResult> res(2);
  std::vector<engine::GroupJob> group;
  for (std::size_t m = 0; m < 2; ++m) {
    reqs[m].kernel_id = "bs.intermediate.auto";
    reqs[m].portfolio = books[m].view();
    group.push_back({&reqs[m], &res[m]});
  }
  ASSERT_TRUE(Engine::fusable(reqs[0], reqs[1]));
  engine::GroupScratch gs;
  eng.price_group(group, gs);

  for (std::size_t m = 0; m < 2; ++m) {
    ASSERT_EQ(res[m].status.code(), StatusCode::kOk) << m << ": " << res[m].status.to_string();
    EXPECT_EQ(res[m].request_id, res[0].request_id);
    PricingRequest solo;
    solo.kernel_id = "bs.intermediate.auto";
    solo.portfolio = alone[m].view();
    ASSERT_TRUE(eng.price(solo).status.ok());
    std::size_t diff = 0;
    for (std::size_t i = 0; i < sizes[m]; ++i) {
      const robust::BsElem a = robust::bs_elem(books[m].view(), i);
      const robust::BsElem b = robust::bs_elem(alone[m].view(), i);
      diff += !same_bits(a.call, b.call) || !same_bits(a.put, b.put);
    }
    EXPECT_EQ(diff, 0u) << "member " << m;
  }
}

TEST(Engine, NegotiatedRequestRepricesInPlaceInputChanges) {
  auto reused_book = core::make_bs_workload_aos(1024, 67);
  PricingRequest reused;
  reused.kernel_id = "bs.intermediate.auto";  // SOA kernel, AOS request
  reused.portfolio = core::view_of(reused_book);
  ASSERT_TRUE(Engine::shared().price(reused).status.ok());
  for (auto& o : reused_book.options) o.spot *= 1.5;
  const PricingResult res = Engine::shared().price(reused);
  ASSERT_TRUE(res.status.ok()) << res.status.to_string();

  auto fresh_book = reused_book;
  PricingRequest fresh;
  fresh.kernel_id = reused.kernel_id;
  fresh.portfolio = core::view_of(fresh_book);
  ASSERT_TRUE(Engine::shared().price(fresh).status.ok());
  for (std::size_t i = 0; i < reused_book.options.size(); ++i) {
    EXPECT_EQ(reused_book.options[i].call, fresh_book.options[i].call) << i;
    EXPECT_EQ(reused_book.options[i].put, fresh_book.options[i].put) << i;
  }
}
