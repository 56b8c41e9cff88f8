// Engine tests for the single-option binomial lattice path: with
// PricingRequest::steps_per_year > 0 every option has its own depth and is
// priced alone, on its variant's SIMD lanes.
//
//   - every spec-layout binomial variant prices American books like the
//     reference, at a uniform depth and at per-option depths (the tiled
//     and basic levels once priced American options as European),
//   - a mixed American/European per-option-depth book is bitwise equal
//     across chunk granularity, schedule, pool size, task mode and
//     price_group membership, because each option's value depends only
//     on that option.
//   - price_group members at a uniform depth are bitwise equal to their
//     solo prices, because every member meets the kernel in its own lane
//     groups.

#include <algorithm>
#include <cmath>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "finbench/core/portfolio.hpp"
#include "finbench/core/workload.hpp"
#include "finbench/engine/engine.hpp"
#include "finbench/engine/group.hpp"
#include "finbench/engine/registry.hpp"
#include "finbench/engine/thread_pool.hpp"
#include "finbench/kernels/binomial.hpp"

using namespace finbench;
using engine::Engine;
using engine::PricingRequest;
using engine::PricingResult;
using engine::TaskMode;

namespace {

constexpr const char* kReference = "binomial.reference.scalar";

// American puts from the canonical generator plus 16 deep in-the-money
// puts whose value is their intrinsic 40 (S=80, K=120, T=1).
std::vector<core::OptionSpec> american_book() {
  core::SingleOptionWorkloadParams p;
  p.style = core::ExerciseStyle::kAmerican;
  p.years_max = 2.0;
  std::vector<core::OptionSpec> book = core::make_option_workload(21, 41, p);
  const core::OptionSpec itm{80, 120, 1, 0.05, 0.2, core::OptionType::kPut,
                             core::ExerciseStyle::kAmerican};
  book.insert(book.end(), 16, itm);
  return book;
}

// Alternating European/American puts and calls at depths 64..768, some
// deep enough for the banded task path.
std::vector<core::OptionSpec> mixed_book(std::size_t n, std::uint64_t seed) {
  std::vector<core::OptionSpec> book = core::make_option_workload(n, seed);
  for (std::size_t i = 0; i < book.size(); ++i) {
    if (i % 2 == 1) book[i].style = core::ExerciseStyle::kAmerican;
    if (i % 3 == 0) {
      book[i].type = core::OptionType::kCall;
      book[i].dividend = 0.03;
    }
  }
  return book;
}

std::vector<const engine::VariantInfo*> spec_binomial_variants() {
  std::vector<const engine::VariantInfo*> out;
  for (const std::string& id : engine::Registry::instance().ids()) {
    const engine::VariantInfo* v = engine::Registry::instance().find(id);
    if (v->kernel == "binomial" && v->layout == core::Layout::kSpecs) out.push_back(v);
  }
  return out;
}

PricingResult price(const Engine& eng, PricingRequest req, std::span<const core::OptionSpec> book,
                    const char* id) {
  req.kernel_id = id;
  req.portfolio = core::view_of(book);
  PricingResult res;
  eng.price(req, res);
  return res;
}

void expect_bitwise(const std::vector<double>& got, const std::vector<double>& want,
                    const std::string& shape) {
  ASSERT_EQ(got.size(), want.size()) << shape;
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << shape << " option " << i;
  }
}

}  // namespace

TEST(EngineLattice, EverySpecsBinomialVariantPricesAmericanBooks) {
  const std::vector<core::OptionSpec> book = american_book();
  engine::ThreadPool pool(2);
  Engine eng(&pool);
  const std::vector<const engine::VariantInfo*> variants = spec_binomial_variants();
  ASSERT_GE(variants.size(), 6u);

  for (const int spy : {0, 192}) {
    PricingRequest req;
    req.steps = 256;
    req.steps_per_year = spy;
    const PricingResult want = price(eng, req, book, kReference);
    ASSERT_TRUE(want.status.ok()) << want.status.to_string();
    EXPECT_NEAR(want.values.back(), 40.0, 1e-9);
    for (const engine::VariantInfo* v : variants) {
      EXPECT_FALSE(v->european_only) << v->id;
      const PricingResult got = price(eng, req, book, v->id.c_str());
      ASSERT_TRUE(got.status.ok()) << v->id << ": " << got.status.to_string();
      ASSERT_EQ(got.values.size(), book.size());
      for (std::size_t i = 0; i < book.size(); ++i) {
        EXPECT_NEAR(got.values[i], want.values[i],
                    v->tolerance * std::max(1.0, std::fabs(want.values[i])))
            << v->id << " steps_per_year=" << spy << " option " << i;
      }
    }
  }
}

TEST(EngineLattice, PerOptionDepthsBitwiseEqualAcrossExecutionShapes) {
  const std::vector<core::OptionSpec> book = mixed_book(40, 43);
  const std::span<const core::OptionSpec> view(book);
  PricingRequest base;
  base.steps_per_year = 256;  // years 0.25..3 -> depths 64..768
  ASSERT_GT(std::count_if(book.begin(), book.end(),
                          [&](const core::OptionSpec& o) {
                            return o.style == core::ExerciseStyle::kEuropean &&
                                   o.years * base.steps_per_year >=
                                       kernels::binomial::banded::kMinTaskSteps;
                          }),
            0)
      << "no option is deep enough for the banded task path";

  engine::ThreadPool pool(4);
  Engine eng(&pool);
  const PricingResult ref = price(eng, base, view, kReference);
  ASSERT_TRUE(ref.status.ok()) << ref.status.to_string();

  for (const char* id : {"binomial.intermediate.avx2", "binomial.intermediate.auto",
                         "binomial.advanced.avx2", "binomial.advanced.auto",
                         "binomial.advanced_unrolled.auto"}) {
    const PricingResult solo = price(eng, base, view, id);
    ASSERT_TRUE(solo.status.ok()) << id << ": " << solo.status.to_string();
    for (std::size_t i = 0; i < book.size(); ++i) {
      if (book[i].style == core::ExerciseStyle::kEuropean) {
        EXPECT_EQ(solo.values[i], ref.values[i]) << id << " option " << i;
      } else {
        EXPECT_NEAR(solo.values[i], ref.values[i], 1e-8 * std::max(1.0, std::fabs(ref.values[i])))
            << id << " option " << i;
      }
    }

    for (const int cpt : {1, 3, 8, 32}) {
      for (const auto sched : {arch::Schedule::kStatic, arch::Schedule::kDynamic}) {
        for (const TaskMode tasks : {TaskMode::kOff, TaskMode::kOn}) {
          PricingRequest req = base;
          req.chunks_per_thread = cpt;
          req.schedule = sched;
          req.tasks = tasks;
          const std::string shape = std::string(id) + " cpt=" + std::to_string(cpt) +
                                    (sched == arch::Schedule::kStatic ? " static" : " dynamic") +
                                    (tasks == TaskMode::kOn ? " tasks" : " flat");
          const PricingResult got = price(eng, req, view, id);
          ASSERT_TRUE(got.status.ok()) << shape << ": " << got.status.to_string();
          expect_bitwise(got.values, solo.values, shape);
        }
      }
    }

    for (const int threads : {1, 3}) {
      engine::ThreadPool other(threads);
      const PricingResult got = price(Engine(&other), base, view, id);
      ASSERT_TRUE(got.status.ok()) << got.status.to_string();
      expect_bitwise(got.values, solo.values, std::string(id) + " pool " + std::to_string(threads));
    }

    // Fused with a second book, each member's values are its solo values.
    const std::vector<core::OptionSpec> other_book = mixed_book(24, 47);
    PricingRequest req_a = base, req_b = base;
    req_a.kernel_id = req_b.kernel_id = id;
    req_a.portfolio = core::view_of(view);
    req_b.portfolio = core::view_of(std::span<const core::OptionSpec>(other_book));
    ASSERT_TRUE(Engine::fusable(req_a, req_b)) << id;
    PricingResult res_a, res_b;
    const engine::GroupJob jobs[] = {{&req_a, &res_a}, {&req_b, &res_b}};
    engine::GroupScratch gs;
    eng.price_group(jobs, gs);
    ASSERT_TRUE(res_a.status.ok() && res_b.status.ok())
        << id << ": " << res_a.status.to_string() << res_b.status.to_string();
    expect_bitwise(res_a.values, solo.values, std::string(id) + " group member a");
    const PricingResult solo_b =
        price(eng, base, std::span<const core::OptionSpec>(other_book), id);
    expect_bitwise(res_b.values, solo_b.values, std::string(id) + " group member b");
  }
}

// Two 13-option members at one uniform depth: each member's segments start
// at offsets its own chunking could produce, so its options meet the
// kernel in the SIMD lane groups they have alone and every spec-layout
// binomial variant prices each member bitwise as solo, in both exercise
// styles.
TEST(EngineLattice, UniformDepthGroupMembersPriceBitwiseAsSolo) {
  engine::ThreadPool pool(4);
  Engine eng(&pool);
  for (const auto style : {core::ExerciseStyle::kEuropean, core::ExerciseStyle::kAmerican}) {
    core::SingleOptionWorkloadParams p;
    p.style = style;
    const std::vector<core::OptionSpec> book_a = core::make_option_workload(13, 71, p);
    const std::vector<core::OptionSpec> book_b = core::make_option_workload(13, 73, p);
    for (const engine::VariantInfo* v : spec_binomial_variants()) {
      const std::string shape =
          v->id + (style == core::ExerciseStyle::kAmerican ? " american" : " european");
      PricingRequest base;
      base.steps = 256;
      const PricingResult solo_a = price(eng, base, book_a, v->id.c_str());
      const PricingResult solo_b = price(eng, base, book_b, v->id.c_str());
      ASSERT_TRUE(solo_a.status.ok() && solo_b.status.ok())
          << shape << ": " << solo_a.status.to_string() << solo_b.status.to_string();

      PricingRequest req_a = base, req_b = base;
      req_a.kernel_id = req_b.kernel_id = v->id;
      req_a.portfolio = core::view_of(std::span<const core::OptionSpec>(book_a));
      req_b.portfolio = core::view_of(std::span<const core::OptionSpec>(book_b));
      ASSERT_TRUE(Engine::fusable(req_a, req_b)) << shape;
      PricingResult res_a, res_b;
      const engine::GroupJob jobs[] = {{&req_a, &res_a}, {&req_b, &res_b}};
      engine::GroupScratch gs;
      eng.price_group(jobs, gs);
      ASSERT_TRUE(res_a.status.ok() && res_b.status.ok())
          << shape << ": " << res_a.status.to_string() << res_b.status.to_string();
      expect_bitwise(res_a.values, solo_a.values, shape + " member a");
      expect_bitwise(res_b.values, solo_b.values, shape + " member b");
    }
  }
}
