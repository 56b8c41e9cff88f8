// The caller-path workloads and the negotiated-layout probe.
//
// Every workload drives Engine::price the way a caller would, in the
// caller's native layout with default policies, and checks every operation
// it times against a reference, off the clock. Set-up is measured by
// building what a first caller builds (a pool, an engine, a fresh request)
// and timing it to the first result; the median of several set-ups is
// reported.

#include "workloads.hpp"

#include <algorithm>
#include <cstdio>
#include <span>
#include <stdexcept>

#include "finbench/core/analytic.hpp"
#include "finbench/engine/engine.hpp"
#include "finbench/engine/registry.hpp"
#include "inputs.hpp"

namespace perfbench {

namespace engine = finbench::engine;

double tolerance_of(const char* id) {
  const engine::VariantInfo* v = engine::Registry::instance().find(id);
  if (v == nullptr) throw std::runtime_error(std::string("unknown variant ") + id);
  return v->tolerance;
}

engine::PricingRequest lattice_request(std::span<const core::OptionSpec> book, const char* id) {
  engine::PricingRequest req;
  req.kernel_id = id;
  req.portfolio = core::view_of(book);
  req.steps_per_year = kStepsPerYear;
  return req;
}

// Evenly spaced book positions from a seeded start.
std::vector<std::size_t> lattice_sample(std::uint64_t seed) {
  const std::size_t start = Rng(mix64(seed, 3)).next() % kLatticeSize;
  std::vector<std::size_t> idx;
  for (std::size_t k = 0; k < kLatticeSample; ++k) {
    idx.push_back((start + k * (kLatticeSize / kLatticeSample)) % kLatticeSize);
  }
  return idx;
}

std::vector<double> lattice_reference(std::span<const core::OptionSpec> book,
                                      const std::vector<std::size_t>& idx) {
  std::vector<core::OptionSpec> sample;
  for (std::size_t i : idx) sample.push_back(book[i]);
  engine::PricingRequest req = lattice_request(sample, kLatticeReference);
  req.tasks = engine::TaskMode::kOff;
  engine::PricingResult res = engine::Engine::shared().price(req);
  if (!res.status.ok()) throw std::runtime_error("lattice reference: " + res.status.to_string());
  return res.values;
}

std::size_t lattice_mismatches(const std::vector<double>& values,
                               const std::vector<std::size_t>& idx,
                               const std::vector<double>& want, double tol) {
  std::size_t bad = 0;
  for (std::size_t k = 0; k < idx.size(); ++k) {
    if (values.size() != kLatticeSize || !close_enough(values[idx[k]], want[k], tol)) ++bad;
  }
  return bad;
}

double seconds_since(std::uint64_t t0) { return 1e-9 * static_cast<double>(now_ns() - t0); }

namespace {

// Closed loops run at least kMinReps reps; rep 0 warms up and is not timed.
// The tail is the p90 of each block of kBlock consecutive reps (ten samples
// beyond it), then the median over the blocks: a few seconds of host noise
// spoil one block instead of the whole run's tail.
constexpr std::size_t kBlock = 100;
constexpr std::size_t kMinReps = 4 * kBlock + 1;

// Runs `body(rep)` until `seconds` passed and at least kMinReps ran, or the
// hard cap of three times the budget is hit.
template <class Body>
void timed_loop(double seconds, Body&& body) {
  const std::uint64_t t0 = now_ns();
  for (std::uint64_t rep = 0;; ++rep) {
    const double el = seconds_since(t0);
    if ((el >= seconds && rep >= kMinReps) || el >= 3.0 * seconds) break;
    body(rep);
  }
}

// Closed-loop metrics: one rep is one caller request.
void put_closed_loop(Outcome& out, const std::vector<double>& rep_s, double items) {
  std::vector<double> rate, block_tail;
  rate.reserve(rep_s.size());
  for (double x : rep_s) rate.push_back(items / x);
  for (std::size_t b = 0; b + kBlock <= rep_s.size(); b += kBlock) {
    const auto first = rep_s.begin() + static_cast<std::ptrdiff_t>(b);
    block_tail.push_back(summarize(std::vector<double>(first, first + kBlock), kBlock).tail);
  }
  const double tail = block_tail.empty() ? summarize(rep_s, rep_s.size()).tail : median(block_tail);
  out.put("opts_per_s", median(rate), rep_s.size(), "median");
  out.put("req_p50_us", 1e6 * median(rep_s), rep_s.size(), "p50");
  // The tail is printed but not a bounded metric: on a shared host it moves
  // with the neighbours' load far more than the median does.
  char line[160];
  std::snprintf(line, sizeof line,
                "rep tail: p90 per %zu reps, median of %zu blocks = %.3f ms (unbounded)", kBlock,
                block_tail.size(), 1e3 * tail);
  out.notes.emplace_back(line);
}

void put_setup(Outcome& out, const std::vector<double>& setup_s) {
  out.put("setup_s", median(setup_s), setup_s.size(), "median");
}

// --- bs_book ----------------------------------------------------------------

Outcome bs_book(std::uint64_t seed, double seconds, int setup_repeats) {
  Outcome out;
  BsBook book(kBookSize, mix64(seed, 1), make_curves(mix64(seed, 1), 1)[0]);
  std::vector<double> setup_s;
  for (int k = 0; k < setup_repeats; ++k) {
    book.tick(~std::uint64_t{0} - static_cast<std::uint64_t>(k));  // fresh spots
    bool ok = false;
    const std::uint64_t t0 = now_ns();
    {
      engine::ThreadPool pool;
      engine::Engine eng(&pool);
      engine::PricingRequest req;
      req.kernel_id = kBsKernel;
      req.portfolio = book.view();
      engine::PricingResult res;
      eng.price(req, res);
      setup_s.push_back(seconds_since(t0));
      ok = res.status.ok();
    }
    out.count(1, ok && book.mismatches(tolerance_of(kBsKernel)) == 0 ? 0 : 1);
  }
  const double tol = tolerance_of(kBsKernel);

  engine::Engine& eng = engine::Engine::shared();
  engine::PricingRequest req;
  req.kernel_id = kBsKernel;
  req.portfolio = book.view();
  engine::PricingResult res;
  std::vector<double> rep_s;
  timed_loop(seconds, [&](std::uint64_t rep) {
    book.tick(rep);
    const std::uint64_t t0 = now_ns();
    {
      SpanScope span("engine.price", rep);
      eng.price(req, res);
    }
    const double dt = seconds_since(t0);
    if (rep > 0) rep_s.push_back(dt);  // rep 0 warms the shared engine
    out.count(1, res.status.ok() && book.mismatches(tol) == 0 ? 0 : 1);
  });
  put_setup(out, setup_s);
  put_closed_loop(out, rep_s, static_cast<double>(kBookSize));
  return out;
}

// --- lattice_book -------------------------------------------------------------

Outcome lattice_book(std::uint64_t seed, double seconds, int setup_repeats) {
  Outcome out;
  const std::vector<core::OptionSpec> book = make_lattice_book(kLatticeSize, mix64(seed, 2));
  const std::vector<std::size_t> idx = lattice_sample(seed);
  std::vector<double> setup_s;
  std::vector<std::vector<double>> setup_values;
  std::vector<bool> setup_ok;
  for (int k = 0; k < setup_repeats; ++k) {
    const std::uint64_t t0 = now_ns();
    engine::ThreadPool pool;
    engine::Engine eng(&pool);
    engine::PricingRequest req = lattice_request(book, kLatticeKernel);
    engine::PricingResult res;
    eng.price(req, res);
    setup_s.push_back(seconds_since(t0));
    setup_ok.push_back(res.status.ok());
    setup_values.push_back(res.values);
  }
  const double tol = tolerance_of(kLatticeKernel);
  const std::vector<double> want = lattice_reference(book, idx);
  for (std::size_t k = 0; k < setup_values.size(); ++k) {
    out.count(1, setup_ok[k] && lattice_mismatches(setup_values[k], idx, want, tol) == 0 ? 0 : 1);
  }

  engine::Engine& eng = engine::Engine::shared();
  engine::PricingRequest req = lattice_request(book, kLatticeKernel);
  engine::PricingResult res;
  std::vector<double> rep_s;
  timed_loop(seconds, [&](std::uint64_t rep) {
    const std::uint64_t t0 = now_ns();
    {
      SpanScope span("engine.price", rep);
      eng.price(req, res);
    }
    const double dt = seconds_since(t0);
    if (rep > 0) rep_s.push_back(dt);
    out.count(1, res.status.ok() && lattice_mismatches(res.values, idx, want, tol) == 0 ? 0 : 1);
  });
  put_setup(out, setup_s);
  put_closed_loop(out, rep_s, static_cast<double>(kLatticeSize));
  return out;
}

}  // namespace

Outcome run_workload(const std::string& name, std::uint64_t seed, double seconds,
                     int setup_repeats) {
  if (name == "bs_book") return bs_book(seed, seconds, setup_repeats);
  if (name == "lattice_book") return lattice_book(seed, seconds, setup_repeats);
  throw std::invalid_argument("unknown workload " + name);
}

ProbeResult negotiated_layout_probe(std::uint64_t seed) {
  constexpr std::size_t kProbeSize = 1024;
  const Curve curve = make_curves(mix64(seed, 7), 1)[0];
  Rng rng(mix64(seed, 8));
  std::vector<core::BsOptionAos> aos(kProbeSize);
  for (core::BsOptionAos& o : aos) {
    o.spot = rng.uniform(50.0, 150.0);
    o.strike = o.spot * rng.uniform(0.7, 1.3);
    o.years = rng.uniform(0.05, 3.0);
    o.call = o.put = 0.0;
  }
  core::PortfolioView view;
  view.layout = core::Layout::kBsAos;
  view.aos.options = {aos.data(), aos.size()};
  view.aos.rate = curve.rate;
  view.aos.vol = curve.vol;

  engine::Engine& eng = engine::Engine::shared();
  engine::PricingRequest reused;
  reused.kernel_id = kBsKernel;
  reused.portfolio = view;
  engine::PricingResult res;
  eng.price(reused, res);
  for (core::BsOptionAos& o : aos) o.spot *= rng.uniform(1.2, 1.8);  // in place
  eng.price(reused, res);
  std::vector<double> got_call(kProbeSize), got_put(kProbeSize);
  for (std::size_t i = 0; i < kProbeSize; ++i) {
    got_call[i] = aos[i].call;
    got_put[i] = aos[i].put;
  }
  engine::PricingRequest fresh;
  fresh.kernel_id = kBsKernel;
  fresh.portfolio = view;
  eng.price(fresh, res);

  const double tol = tolerance_of(kBsKernel);
  ProbeResult pr;
  pr.options = kProbeSize;
  pr.got0 = got_call[0];
  pr.want0 = aos[0].call;
  pr.fresh_correct = res.status.ok();
  for (std::size_t i = 0; i < kProbeSize; ++i) {
    if (!close_enough(got_call[i], aos[i].call, tol) || !close_enough(got_put[i], aos[i].put, tol)) {
      ++pr.stale;
    }
    const core::BsPrice p =
        core::black_scholes(aos[i].spot, aos[i].strike, aos[i].years, curve.rate, curve.vol, 0.0);
    if (!close_enough(aos[i].call, p.call, tol) || !close_enough(aos[i].put, p.put, tol)) {
      pr.fresh_correct = false;
    }
  }
  return pr;
}

std::string inputs_digest(const std::string& workload, std::uint64_t seed) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  if (workload == "bs_book") {
    BsBook book(kBookSize, mix64(seed, 1), make_curves(mix64(seed, 1), 1)[0]);
    for (std::uint64_t rep = 0; rep < 3; ++rep) {
      book.tick(rep);
      h = book.digest(h);
    }
  } else if (workload == "lattice_book") {
    for (const core::OptionSpec& o : make_lattice_book(kLatticeSize, mix64(seed, 2))) {
      for (double x : {o.spot, o.strike, o.years, o.rate, o.vol}) h = digest_fold(h, x);
      h = digest_fold(h, o.style == core::ExerciseStyle::kAmerican ? 1.0 : 0.0);
    }
  } else {
    throw std::invalid_argument("unknown workload " + workload);
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

}  // namespace perfbench
