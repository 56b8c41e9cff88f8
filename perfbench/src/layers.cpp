// The per-layer suite of the traced run.
//
// Each layer's public function is called directly, from outside the
// library, inside a span; the metric is the median self time of its spans.
// The Black–Scholes book is the one bs_book prices, so sanitize + kernel +
// guard + engine.residual_ms account for the traced Engine::price time by
// construction, and the residual is the engine glue around them.

#include <omp.h>

#include <functional>

#include "finbench/arch/machine_model.hpp"
#include "finbench/engine/engine.hpp"
#include "finbench/engine/registry.hpp"
#include "finbench/robust/guards.hpp"
#include "finbench/robust/sanitize.hpp"
#include "finbench/serve/server.hpp"
#include "inputs.hpp"
#include "stream.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace engine = finbench::engine;
namespace robust = finbench::robust;
namespace serve = finbench::serve;

namespace {

// Bytes each streaming sweep reads per option of an SOA book (computed, not
// measured): sanitize checks spot, strike and years; the finite-mode guard
// checks call and put.
constexpr double kSanitizeBytes = 24.0;
constexpr double kGuardBytes = 16.0;

double span_median(const char* name, bool self = true) {
  return median(g_spans->seconds(name, self));
}
std::size_t span_count(const char* name) { return g_spans->seconds(name, false).size(); }

const engine::VariantInfo& variant(const char* id) {
  return *engine::Registry::instance().find(id);
}

void put_ms(Outcome& out, const char* metric, const char* span, bool self = true) {
  out.put(metric, 1e3 * span_median(span, self), span_count(span), "median");
}
void put_us(Outcome& out, const char* metric, const char* span) {
  out.put(metric, 1e6 * span_median(span), span_count(span), "median");
}

void bs_book_layers(std::uint64_t seed, double stream_gbps, Outcome& out) {
  BsBook book(kBookSize, mix64(seed, 1), make_curves(mix64(seed, 1), 1)[0]);
  const engine::VariantInfo& v = variant(kBsKernel);
  engine::Engine& eng = engine::Engine::shared();
  engine::PricingRequest req;
  req.kernel_id = kBsKernel;
  req.portfolio = book.view();
  engine::PricingRequest kreq = req;
  engine::PricingResult res, kres;
  robust::SanitizeReport san;
  eng.price(req, res);
  constexpr int kReps = 12;
  for (int k = 0; k < kReps; ++k) {
    book.tick(static_cast<std::uint64_t>(k));
    {
      SpanScope s("engine.price.book", k);
      eng.price(req, res);
    }
    {
      SpanScope s("robust.sanitize", k);
      core::PortfolioView w = book.view();
      san.reset();
      robust::sanitize(w, robust::SanitizePolicy::kSkip, san);
    }
    {
      SpanScope s("kernels.bs.run_batch", k);
      v.run_batch(kreq, book.view(), kres);
    }
    {
      SpanScope s("robust.guard", k);
      robust::guard_and_repair_bs(book.view(), robust::GuardPolicy{}, {});
    }
  }
  out.count(1, res.status.ok() && book.mismatches(v.tolerance) == 0 ? 0 : 1);

  const double n = static_cast<double>(kBookSize);
  const double price = span_median("engine.price.book");
  const double sanitize = span_median("robust.sanitize");
  const double kernel = span_median("kernels.bs.run_batch");
  const double guard = span_median("robust.guard");
  put_ms(out, "engine.price.ms", "engine.price.book");
  put_ms(out, "robust.sanitize.ms", "robust.sanitize");
  put_ms(out, "robust.guard.ms", "robust.guard");
  put_ms(out, "kernels.bs.ms", "kernels.bs.run_batch");
  out.put("robust.sanitize.gbps", kSanitizeBytes * n / sanitize / 1e9, kReps, "median");
  out.put("robust.guard.gbps", kGuardBytes * n / guard / 1e9, kReps, "median");
  const double kernel_gbps = v.bytes_per_item(req) * n / kernel / 1e9;
  out.put("kernels.bs.roofline_frac", kernel_gbps / stream_gbps, kReps, "median");
  const double residual = price - (sanitize + kernel + guard);
  out.put("engine.residual_ms", 1e3 * residual, kReps, "median difference");
  char line[200];
  std::snprintf(line, sizeof line,
                "bs_book accounting: Engine::price %.3f ms = sanitize %.3f + kernel %.3f + "
                "guard %.3f + residual %.3f ms (%.1f%% of the call)",
                1e3 * price, 1e3 * sanitize, 1e3 * kernel, 1e3 * guard, 1e3 * residual,
                100.0 * residual / price);
  out.notes.emplace_back(line);
}

void small_request_layers(std::uint64_t seed, Outcome& out) {
  const Curve curve = make_curves(mix64(seed, 4), kCurves)[0];
  const engine::VariantInfo& v = variant(kBsKernel);
  engine::Engine& eng = engine::Engine::shared();
  engine::ThreadPool& pool = engine::ThreadPool::shared();
  BsBook book(kSmallSize, mix64(seed, 0x51), curve);
  engine::PricingRequest req;
  req.kernel_id = kBsKernel;
  req.portfolio = book.view();
  engine::PricingRequest kreq = req;
  engine::PricingResult res, kres;
  const std::function<void(std::ptrdiff_t)> noop = [](std::ptrdiff_t) {};
  eng.price(req, res);
  constexpr int kReps = 2000;
  for (int k = 0; k < kReps; ++k) {
    book.tick(static_cast<std::uint64_t>(k));
    {
      SpanScope s("kernels.bs.run_batch.small", k);
      v.run_batch(kreq, book.view(), kres);
    }
    {
      SpanScope s("engine.price.small", k);
      eng.price(req, res);
    }
    {
      SpanScope s("engine.pool.run", k);
      pool.run(pool.size(), noop);
    }
  }
  out.count(1, res.status.ok() && book.mismatches(v.tolerance) == 0 ? 0 : 1);
  put_us(out, "kernels.bs.small_us", "kernels.bs.run_batch.small");
  put_us(out, "engine.price_small_us", "engine.price.small");
  put_us(out, "engine.pool.run_us", "engine.pool.run");

  // 32 members of 32 options on one curve, priced as one fused group.
  constexpr std::size_t kMembers = 32;
  std::vector<BsBook> books;
  std::vector<engine::PricingRequest> reqs(kMembers);
  std::vector<engine::PricingResult> results(kMembers);
  std::vector<engine::GroupJob> group(kMembers);
  books.reserve(kMembers);
  for (std::size_t j = 0; j < kMembers; ++j) {
    books.emplace_back(kSmallSize, mix64(seed, 0x5200 + j), curve);
    reqs[j].kernel_id = kBsKernel;
    reqs[j].portfolio = books[j].view();
    group[j] = engine::GroupJob{&reqs[j], &results[j]};
  }
  engine::GroupScratch gs;
  eng.price_group(group, gs);
  constexpr int kGroupReps = 300;
  for (int k = 0; k < kGroupReps; ++k) {
    for (BsBook& b : books) b.tick(static_cast<std::uint64_t>(k));
    SpanScope s("engine.price_group.small", k);
    eng.price_group(group, gs);
  }
  for (std::size_t j = 0; j < kMembers; ++j) {
    out.count(1, results[j].status.ok() && books[j].mismatches(v.tolerance) == 0 ? 0 : 1);
  }
  put_us(out, "engine.group_small_us", "engine.price_group.small");
}

void burst_layers(std::uint64_t seed, Outcome& out) {
  const Curve curve = make_curves(mix64(seed, 5), 1)[0];
  const double tol = variant(kBsKernel).tolerance;
  engine::Engine& eng = engine::Engine::shared();
  std::vector<BsBook> books;
  std::vector<engine::PricingRequest> reqs(kBurstMembers);
  std::vector<engine::PricingResult> results(kBurstMembers);
  std::vector<engine::GroupJob> group(kBurstMembers);
  books.reserve(kBurstMembers);
  for (std::size_t j = 0; j < kBurstMembers; ++j) {
    books.emplace_back(kBurstSize, mix64(seed, 600 + j), curve);
    reqs[j].kernel_id = kBsKernel;
    reqs[j].portfolio = books[j].view();
    group[j] = engine::GroupJob{&reqs[j], &results[j]};
  }
  engine::GroupScratch gs;
  eng.price_group(group, gs);
  for (std::size_t j = 0; j < kBurstMembers; ++j) eng.price(reqs[j], results[j]);
  constexpr int kReps = 7;
  for (int k = 0; k < kReps; ++k) {
    for (std::size_t j = 0; j < kBurstMembers; ++j) books[j].tick(2 * k * kBurstMembers + j);
    {
      SpanScope s("engine.price_group.burst", k);
      eng.price_group(group, gs);
    }
    for (std::size_t j = 0; j < kBurstMembers; ++j) {
      books[j].tick((2 * k + 1) * kBurstMembers + j);
    }
    SpanScope s("engine.solo_sum", k);
    for (std::size_t j = 0; j < kBurstMembers; ++j) {
      SpanScope m("engine.price.member", j);
      eng.price(reqs[j], results[j]);
    }
  }
  for (std::size_t j = 0; j < kBurstMembers; ++j) {
    out.count(1, results[j].status.ok() && books[j].mismatches(tol) == 0 ? 0 : 1);
  }
  put_ms(out, "engine.group.ms", "engine.price_group.burst");
  put_ms(out, "engine.solo_sum.ms", "engine.solo_sum", /*self=*/false);
}

void lattice_layers(std::uint64_t seed, Outcome& out) {
  const std::vector<core::OptionSpec> book = make_lattice_book(kLatticeSize, mix64(seed, 2));
  const std::vector<std::size_t> idx = lattice_sample(seed);
  const std::vector<double> want = lattice_reference(book, idx);
  const engine::VariantInfo& v = variant(kLatticeKernel);
  engine::Engine& eng = engine::Engine::shared();

  // Plain single-threaded run_range over the whole book: no pool, no
  // tasks, the kernel's OpenMP region pinned to one thread.
  engine::PricingRequest one = lattice_request(book, kLatticeKernel);
  engine::PricingResult one_res;
  one_res.values.assign(kLatticeSize, 0.0);
  v.prepare(one, one.portfolio);
  const int omp_threads = omp_get_max_threads();
  omp_set_num_threads(1);
  for (int k = 0; k < 3; ++k) {
    SpanScope s("kernels.binomial.run_range", k);
    v.run_range(one, one.portfolio, 0, kLatticeSize, one_res);
  }
  omp_set_num_threads(omp_threads);
  out.count(1, lattice_mismatches(one_res.values, idx, want, v.tolerance) == 0 ? 0 : 1);

  engine::PricingRequest tasked = lattice_request(book, kLatticeKernel);  // TaskMode::kAuto
  engine::PricingRequest flat = lattice_request(book, kLatticeKernel);
  flat.tasks = engine::TaskMode::kOff;
  engine::PricingResult tasked_res, flat_res;
  eng.price(tasked, tasked_res);
  eng.price(flat, flat_res);
  for (int k = 0; k < 5; ++k) {
    {
      SpanScope s("engine.price.lattice_default", k);
      eng.price(tasked, tasked_res);
    }
    SpanScope s("engine.price.lattice_flat", k);
    eng.price(flat, flat_res);
  }
  out.count(1, tasked_res.status.ok() &&
                       lattice_mismatches(tasked_res.values, idx, want, v.tolerance) == 0
                   ? 0
                   : 1);
  out.count(1, flat_res.status.ok() &&
                       lattice_mismatches(flat_res.values, idx, want, v.tolerance) == 0
                   ? 0
                   : 1);

  const double n = static_cast<double>(kLatticeSize);
  const double one_rate = n / span_median("kernels.binomial.run_range");
  const double tasked_s = span_median("engine.price.lattice_default");
  const double flat_s = span_median("engine.price.lattice_flat");
  out.put("kernels.binomial.1t_opts_per_s", one_rate, 3, "median");
  out.put("engine.parallel_eff", n / tasked_s / (eng.pool_size() * one_rate), 5, "median");
  out.put("engine.tasks.flat_speedup", tasked_s / flat_s, 5, "median ratio");
}

// Open-loop 32-option requests at kSmallRate into a default server.
void serve_layers(std::uint64_t seed, Outcome& out) {
  SmallStream stream(mix64(seed, 4));
  const double tol = tolerance_of(kBsKernel);
  serve::Server server;
  server.start();
  const StreamResult warm = stream.run(server, kSmallRate, 0.1, tol);  // server comes up
  const StreamResult sr = stream.run(server, kSmallRate, 1.0, tol);
  server.stop();
  out.count(warm.submitted + sr.submitted, warm.failed + sr.failed);
  const std::size_t n = sr.latency.size();
  out.put("serve.request_p50_us", 1e6 * median(sr.latency), n, "p50 from due time");
  out.put("serve.request_p99_us", 1e6 * p99(sr.latency), n, "p99 from due time");
  out.put("serve.queue_wait_us", 1e6 * median(sr.queue), n, "p50");
  out.put("serve.batch_size.mean", sr.batch_mean(), n, "mean");
  out.put("serve.dispatch_rounds",
          1000.0 * static_cast<double>(sr.batches) / static_cast<double>(sr.submitted),
          sr.submitted, "batches per 1000 requests");
  out.put("serve.gen_lag_us", 1e6 * p99(sr.lag), sr.lag.size(), "p99");
  if (sr.overloaded) out.notes.emplace_back("small-request stream fell 50 ms behind schedule");
}

}  // namespace

void run_layer_suite(std::uint64_t seed, Outcome& out) {
  double gbps = 0.0;
  {
    SpanScope s("arch.stream_bandwidth_gbs");
    gbps = finbench::arch::stream_bandwidth_gbs();
  }
  out.put("arch.stream_gbps", gbps, 1, "best of 3 triads");
  bs_book_layers(seed, gbps, out);
  small_request_layers(seed, out);
  burst_layers(seed, out);
  lattice_layers(seed, out);
  serve_layers(seed, out);
}

}  // namespace perfbench
