#include "finbench/engine/engine.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <exception>
#include <limits>
#include <memory>
#include <mutex>
#include <numeric>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include <atomic>

#include "finbench/arch/timing.hpp"
#include "finbench/core/analytic.hpp"
#include "finbench/obs/flight_recorder.hpp"
#include "finbench/obs/histogram.hpp"
#include "finbench/obs/metrics.hpp"
#include "finbench/obs/trace.hpp"
#include "finbench/resilience/breaker.hpp"
#include "finbench/resilience/chaos.hpp"
#include "finbench/robust/guards.hpp"
#include "variants.hpp"

namespace finbench::engine {

namespace {

constexpr double kQuietNan = std::numeric_limits<double>::quiet_NaN();

// SIMD-across-options (and across-paths) kernels group lanes by position
// within the span they are handed: an interior chunk boundary that is not a
// multiple of the vector width would regroup lanes and perturb results in
// the last ulp. Keeping boundaries 8-aligned (a multiple of every width we
// ship) makes chunked execution bitwise identical to the whole-batch call.
constexpr std::size_t kChunkAlign = 8;

// Black–Scholes chunks (the bandwidth-bound "bs" family; the compute-bound
// rows on its layouts take plain stripes): at most 16K options, ~640 KB of
// inputs and outputs, so a chunk's input check, kernel and any guard pass
// share one L2-resident working set. A request below that per participant
// is split evenly across the pool down to 1K-option chunks (a few pool
// wake-ups' worth of pricing), so a request of up to 1K options is one
// chunk priced on the caller.
// Chunk sizes are multiples of kBsAlign, the widest lane count (16 SP), so
// every chunk starts on an aligned vector; on the blocked layout chunks
// also start on a lane-block boundary.
constexpr std::size_t kBsChunk = 16384;
constexpr std::size_t kBsMinChunk = 1024;
constexpr std::size_t kBsAlign = 16;

// Internal chunk_status marker: the chunk's input check failed, so it
// priced nothing and waits for the sanitizer. Resolved before price()
// returns; never visible to callers.
constexpr std::uint8_t kChunkRescan = 0xff;

// --- Robustness helpers -----------------------------------------------------

// Next link of a variant's fallback chain: explicit fallback_id first,
// else the self-validation reference, else end-of-chain.
const VariantInfo* fallback_of(const VariantInfo& v) {
  const std::string& id = !v.fallback_id.empty() ? v.fallback_id : v.reference_id;
  if (id.empty() || id == v.id) return nullptr;
  return Registry::instance().find(id);
}

bool range_has_american(std::span<const core::OptionSpec> specs, std::size_t begin,
                        std::size_t end) {
  for (std::size_t i = begin; i < end; ++i) {
    if (specs[i].style == core::ExerciseStyle::kAmerican) return true;
  }
  return false;
}

// Engine-side output corruption (FaultPlan::corrupt): forces quiet NaN
// into selected values so the guard/fallback path is exercisable on
// demand. Index stream 1; per-option decisions, independent of chunking.
std::size_t inject_corrupt_values(std::span<double> values, std::size_t base,
                                  const robust::FaultPlan& plan) {
  std::size_t hit = 0;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (plan.hits(1, base + i, plan.corrupt)) {
      values[i] = kQuietNan;
      ++hit;
    }
  }
  if (hit != 0) obs::counter("robust.inject.corrupted").add(hit);
  return hit;
}

std::size_t inject_corrupt_bs(const core::PortfolioView& view, const robust::FaultPlan& plan,
                              std::size_t begin, std::size_t end) {
  std::size_t hit = 0;
  for (std::size_t i = begin; i < end; ++i) {
    if (plan.hits(1, i, plan.corrupt)) {
      const robust::BsElem e = robust::bs_elem(view, i);
      robust::bs_store_outputs(view, i, kQuietNan, e.put);
      ++hit;
    }
  }
  if (hit != 0) obs::counter("robust.inject.corrupted").add(hit);
  return hit;
}

// The values of items [begin, end), one run per output row: kSpecs and the
// fused path average have one row, constructed paths one per point
// (point-major, values[c * n + i]).
template <class F>
void for_each_row(std::vector<double>& values, std::size_t n, std::size_t begin,
                  std::size_t end, F&& f) {
  for (std::size_t at = 0; at < values.size(); at += n) {
    f(std::span<double>{values.data() + at + begin, end - begin});
  }
}

// Engine-side chunk faults (streams 2 and 3). The injected throw fires
// *before* the kernel runs — the most adversarial ordering, since the
// chunk's outputs are left untouched for the fallback chain to fill.
void inject_chunk_faults(const robust::FaultPlan& plan, std::ptrdiff_t chunk) {
  const auto c = static_cast<std::uint64_t>(chunk);
  if (plan.slow > 0.0 && plan.hits(3, c, plan.slow)) {
    obs::counter("robust.inject.slow").add(1);
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(plan.slow_ms));
  }
  if (plan.throw_rate > 0.0 && plan.hits(2, c, plan.throw_rate)) {
    obs::counter("robust.inject.thrown").add(1);
    throw robust::InjectedKernelFault("injected kernel fault in chunk " +
                                      std::to_string(chunk));
  }
}

// Re-price options [begin, end) of a BS view with the scalar closed form —
// the terminal repair when a BS-layout kernel throws and no fallback link
// on its layout succeeds (most chains end in the AOS reference, so their
// failed segments land here).
void repair_bs_range(const core::PortfolioView& view, std::size_t begin, std::size_t end) {
  for (std::size_t i = begin; i < end; ++i) {
    const robust::BsElem e = robust::bs_elem(view, i);
    const core::BsPrice p =
        core::black_scholes(e.spot, e.strike, e.years, e.rate, e.vol, e.dividend);
    robust::bs_store_outputs(view, i, p.call, p.put);
  }
  obs::counter("robust.guard.repaired").add(end - begin);
}

// Force quiet NaN into the outputs of sanitizer-skipped options, so the
// placeholder prices the kernel computed for them never escape.
void mask_skipped_outputs(const std::vector<std::uint8_t>& mask, std::vector<double>& values,
                          std::vector<double>& std_errors, const core::PortfolioView& bs_view) {
  for (std::size_t i = 0; i < mask.size(); ++i) {
    if ((mask[i] & robust::kFaultSkipped) == 0) continue;
    if (i < values.size()) values[i] = kQuietNan;
    if (i < std_errors.size()) std_errors[i] = kQuietNan;
    if (robust::is_bs_layout(bs_view) && i < bs_view.size()) {
      robust::bs_store_outputs(bs_view, i, kQuietNan, kQuietNan);
    }
  }
}

// Outcome counter per terminal status code (engine.status.<code>), so a
// scrape can alert on error-class rates without parsing messages. The
// handles resolve once: the counter registry is not touched per request.
void count_status(robust::StatusCode code) {
  constexpr std::size_t kCodes = static_cast<std::size_t>(robust::StatusCode::kKernelError) + 1;
  static const std::array<obs::Counter*, kCodes> counters = [] {
    std::array<obs::Counter*, kCodes> c{};
    for (std::size_t i = 0; i < kCodes; ++i) {
      c[i] = &obs::counter("engine.status." +
                           std::string(robust::to_string(static_cast<robust::StatusCode>(i))));
    }
    return c;
  }();
  counters[static_cast<std::size_t>(code)]->add(1);
}

// Clear a result for a new execution, keeping its buffers' capacity;
// `values` is sized (or cleared) once the member is known to price.
void reset_result(PricingResult& res, const PricingRequest& req, std::uint64_t request_id) {
  res.status.reset();
  res.kernel_id = req.kernel_id;  // same id on a reused result: no realloc
  res.resolved_id.clear();
  res.tuned = false;
  res.request_id = request_id;
  res.items = 0;
  res.seconds = 0.0;
  res.convert_seconds = 0.0;
  res.convert_bytes = 0;
  res.std_errors.clear();
  res.option_faults.clear();
  res.chunk_status.clear();
  res.options_clamped = res.options_skipped = res.options_repaired = 0;
  res.chunks_degraded = res.chunks_failed = res.chunks_deadline = 0;
  res.brownout_level = 0;
  res.npath_applied = 0;
  res.steps_applied = 0;
  res.attempts = 1;
}

// Stores a member's outcome and bumps the status-labeled outcome counter;
// every member outcome goes through this.
void finish(PricingResult& res, robust::Status status) {
  res.status = std::move(status);
  count_status(res.status.code());
}

// A member that concludes before it prices anything holds no outputs.
void fail_early(PricingResult& res, robust::Status status) {
  res.values.clear();
  finish(res, std::move(status));
}

// A member's Scratch, claimed for this execution. A request copied from
// another carries the other's Scratch (the shared_ptr is copied); when both
// sit in one group the later one gets a fresh Scratch, so no two members
// share execution state.
Scratch& claim_scratch(const PricingRequest& req, std::uint64_t request_id) {
  Scratch* s = &scratch_of(req);
  if (s->run.id == request_id) {
    req.scratch = std::make_shared<Scratch>();
    s = req.scratch.get();
  }
  s->run.id = request_id;
  return *s;
}

Scratch::Run& run_of(const GroupJob& j) { return j.req->scratch->run; }

// One flight-recorder record for a member's segment (worker -1 and zero
// ticks for the post-pass: "never ran" looks different from "ran and
// failed" in the dump).
void record_flight(Scratch& s, std::uint64_t request_id, const VariantInfo& v,
                   const GroupScratch::Segment& sg, const char* status, int worker = -1,
                   double start_us = 0.0, double end_us = 0.0) {
  obs::FlightRecord fr;
  fr.request_id = request_id;
  fr.chunk = sg.slot;
  fr.worker = worker;
  fr.begin = sg.begin;
  fr.end = sg.end;
  fr.start_us = start_us;
  fr.end_us = end_us;
  fr.set_kernel(v.id.c_str());
  fr.set_status(status);
  s.flight->record(fr);
}

void record_error(Scratch::Run& m, const char* what) {
  std::lock_guard<std::mutex> lock(m.mu);
  if (m.error.empty()) m.error = what;
}

// The chunk plan of one execution. Its boundaries are those a single
// request of the members' combined size would get — bandwidth-sized
// stripes for the Black–Scholes family (sizes per kBsChunk above),
// cost-model-weighted for dynamic scheduling with a cost model (each chunk
// carries ~total/K weight, so expensive long-dated options don't all land
// in one chunk), plain equal-count stripes otherwise (the classic
// partition the imbalance experiment compares against) — each moved down
// to an aligned offset within the member it falls in (kBsAlign for
// Black–Scholes, kChunkAlign otherwise, and a lane-block boundary on the
// blocked layout), so every member's options meet the kernel in the lane
// groups they would have alone. Chunks are then cut at member boundaries
// into segments. Duplicate boundaries are dropped, so every chunk is
// non-empty; with one member this is that member's classic partition.
void plan_segments(const VariantInfo& v, std::span<const GroupJob> group, std::size_t total,
                   int nparts, arch::Schedule schedule, GroupScratch& gs) {
  gs.segments.clear();
  gs.chunks.assign(1, 0);
  const bool bs = v.kernel == "bs";
  const std::size_t k = std::min(static_cast<std::size_t>(nparts), total);
  auto size_of = [&](std::size_t j) {
    const Scratch::Run& m = run_of(group[j]);
    return m.live ? m.n : 0;
  };
  // Segments cover [0, pos); member `em` starts at offset `eoff`.
  std::size_t pos = 0, em = 0, eoff = 0;
  auto emit_to = [&](std::size_t b) {
    while (pos < b) {
      while (pos >= eoff + size_of(em)) eoff += size_of(em++);
      const std::size_t end = std::min(b, eoff + size_of(em));
      gs.segments.push_back({static_cast<std::uint32_t>(em),
                             static_cast<std::uint32_t>(run_of(group[em]).segments++),
                             pos - eoff, end - eoff});
      pos = end;
    }
  };
  // Boundaries arrive in increasing order; member `cm` (at `coff`) holds
  // the latest.
  std::size_t cm = 0, coff = 0;
  auto cut = [&](std::size_t b) {
    if (b >= total) return;
    while (b >= coff + size_of(cm)) coff += size_of(cm++);
    const core::PortfolioView& view = *run_of(group[cm]).view;
    std::size_t align = bs ? kBsAlign : kChunkAlign;
    if (view.layout == Layout::kBsBlocked) {
      align = std::lcm(align, static_cast<std::size_t>(view.blocked.block));
    }
    b -= (b - coff) % align;
    if (b <= pos) return;
    emit_to(b);
    gs.chunks.push_back(gs.segments.size());
  };
  if (bs) {
    std::size_t chunk = (total + k - 1) / k;
    chunk = std::clamp((chunk + kBsAlign - 1) / kBsAlign * kBsAlign, kBsMinChunk, kBsChunk);
    for (std::size_t b = chunk; b < total; b += chunk) cut(b);
  } else if (v.item_cost && schedule == arch::Schedule::kDynamic) {
    auto for_each_cost = [&](auto&& f) {
      for (const GroupJob& j : group) {
        const Scratch::Run& m = run_of(j);
        if (!m.live) continue;
        for (std::size_t i = 0; i < m.n; ++i) f(v.item_cost(m.view->specs[i], *j.req));
      }
    };
    double sum = 0.0;
    for_each_cost([&](double c) { sum += c; });
    const double per_chunk = sum / static_cast<double>(k);
    double acc = 0.0;
    std::size_t b = 0;
    for_each_cost([&](double c) {
      acc += c;
      ++b;
      if (acc >= per_chunk && gs.chunks.size() < k) {
        cut(b);
        acc = 0.0;
      }
    });
  } else {
    for (std::size_t c = 1; c < k; ++c) cut(c * total / k);
  }
  emit_to(total);
  gs.chunks.push_back(gs.segments.size());
}

}  // namespace

Engine::Engine(ThreadPool* pool) : pool_(pool ? pool : &ThreadPool::shared()) {}

int Engine::pool_size() const { return pool_->size(); }

Engine& Engine::shared() {
  static Engine e;
  return e;
}

PricingResult Engine::price(const PricingRequest& req) const {
  PricingResult res;
  price(req, res);
  return res;
}

void Engine::price(const PricingRequest& req, PricingResult& res) const {
  const GroupJob job{&req, &res};
  execute({&job, 1}, scratch_of(req).solo);
}

void Engine::execute(std::span<const GroupJob> group, GroupScratch& gs) const {
  // The flight recorder's join key: one id per engine execution,
  // process-unique, stamped into every record this run produces and into
  // every member's result.
  static std::atomic<std::uint64_t> request_seq{0};
  const std::uint64_t request_id = request_seq.fetch_add(1, std::memory_order_relaxed) + 1;

  // Resolve the kernel id — a concrete registry id passes through, an auto
  // intent ("blackscholes.auto") resolves to a DispatchPlan (cache hit or
  // a one-time race) whose schedule/chunks_per_thread govern execution
  // below. The group shares the first member's resolution (Engine::fusable
  // held every member to the same plan). Resolution happens before the
  // deadline is armed: the race is a once-per-key warm-up cost, not part of
  // the priced run. (An auto intent over an empty workload is rejected
  // inside resolve_dispatch — racing nothing would persist a meaningless
  // plan.)
  const ResolvedDispatch rd = resolve_dispatch(*this, *group[0].req);
  const VariantInfo* v = rd.v;
  // Black–Scholes layouts (all but kSpecs and kPaths) price into the view's
  // call/put arrays, each chunk checking its inputs, pricing, and guarding
  // its own outputs; the other layouts write PricingResult::values.
  const bool bs = v != nullptr && v->layout != Layout::kSpecs && v->layout != Layout::kPaths;

  // --- Member set-up -------------------------------------------------------
  // Each member is reset, sanitized and negotiated on its own; a member
  // that cannot be priced concludes here and takes no part in the run.
  std::size_t total = 0, live = 0;
  for (const GroupJob& j : group) {
    const PricingRequest& req = *j.req;
    PricingResult& res = *j.res;
    reset_result(res, req, request_id);
    Scratch& s = claim_scratch(req, request_id);
    Scratch::Run& m = s.run;
    m.live = m.negotiated = m.scan = m.rescan = false;
    m.n = m.segments = m.priced = 0;
    m.repaired.store(0, std::memory_order_relaxed);
    m.error.clear();
    if (v == nullptr) {
      fail_early(res, rd.error);
      continue;
    }
    res.resolved_id = v->id;
    res.tuned = rd.tuned;
    res.layout = v->layout;
    const std::size_t n = req.portfolio.size();
    if (n == 0) {
      fail_early(res, robust::Status::invalid_argument(
                      "variant '" + v->id + "' got an empty workload (layout " +
                      std::string(to_string(req.portfolio.layout)) + ")"));
      continue;
    }
    // The engine's working view: same arrays as the caller's, but a local
    // object, so the sanitizer may repair shared BS scalars and the specs
    // span may be re-pointed at the sanitized copy without touching req.
    m.working = req.portfolio;

    // Intra-option task handoff: with the resolved task mode on, variant
    // adapters may decompose expensive options into nested fork-join tasks
    // on the engine's pool (engine/task_group.hpp). Re-stamped every
    // pricing — the resolved mode can change between repetitions (tuner,
    // pins).
    s.tasks_on = rd.tasks;
    s.task_pool = rd.tasks ? pool_ : nullptr;

    // Per-kernel latency instruments, resolved once per kernel id: the
    // registry lookup builds label strings and takes a mutex, so repeated
    // pricings of the same request must go through these cached handles
    // (the steady-state path stays allocation-free).
    if (s.hist_kernel_id != v->id) {
      std::string labels = "kernel=\"";
      labels += v->id;
      labels += "\",layout=\"";
      labels += to_string(v->layout);
      labels += '"';
      s.hist_request = &obs::histogram("engine.request.seconds", labels);
      s.hist_chunk = &obs::histogram("engine.chunk.seconds", labels);
      s.flight = &obs::flight_recorder();
      s.hist_kernel_id = v->id;
      s.breaker = nullptr;  // re-resolve below: the variant changed
    }

    // The executed variant's circuit breaker, cached with the histogram
    // handles; the generation guard re-resolves after a registry reset
    // (tests, chaos scenario boundaries) so the handle never dangles.
    {
      resilience::BreakerRegistry& brk = resilience::BreakerRegistry::instance();
      const std::uint64_t gen = brk.generation();
      if (s.breaker == nullptr || s.breaker_gen != gen) {
        s.breaker = &brk.of(v->id);
        s.breaker_gen = gen;
      }
    }

    // --- Input sanitization ------------------------------------------------
    // A BS member under kSkip/kClamp with clean shared parameters defers
    // the per-option scan to its chunks (Run::scan); kReject and
    // shared-parameter faults take the full serial scan first, so a
    // rejected member prices nothing.
    robust::SanitizeReport& san = s.sanitize_report;
    san.reset();
    m.scan = bs && req.sanitize != robust::SanitizePolicy::kOff &&
             req.sanitize != robust::SanitizePolicy::kReject &&
             robust::bs_shared_clean(m.working);
    if (req.sanitize != robust::SanitizePolicy::kOff && !m.scan) {
      robust::sanitize(m.working, req.sanitize, san);
      if (!san.clean()) {
        if (req.sanitize == robust::SanitizePolicy::kReject) {
          res.option_faults = san.mask;
          fail_early(res, robust::Status::invalid_input(
                          "workload rejected: " + std::to_string(san.faulty) + " of " +
                          std::to_string(n) +
                          " option(s) failed sanitization (see PricingResult::option_faults)"));
          continue;
        }
        if (m.working.layout == Layout::kSpecs) {
          // The caller's specs are immutable through the view: price a
          // policy-applied copy instead (kept in Scratch; the buffer is
          // reused across repetitions of this request).
          s.sanitized_specs.resize(n);
          robust::sanitize_specs(m.working.specs, s.sanitized_specs, req.sanitize, san);
          m.working.specs = {s.sanitized_specs.data(), n};
        }
        res.option_faults = san.mask;
        res.options_clamped = san.clamped;
        res.options_skipped = san.skipped;
      }
    }

    // --- Layout negotiation ------------------------------------------------
    // A convertible mismatch is converted once into the member's arena and
    // cached; repetitions reuse the converted view, refresh its inputs from
    // the caller's (which may have changed in place) and pay the output
    // writeback. The one-time conversion cost travels on every result so a
    // single-shot caller still sees what negotiation cost them.
    m.view = &m.working;
    if (m.working.layout != v->layout) {
      if (!core::convertible(m.working.layout, v->layout)) {
        fail_early(res, robust::Status::invalid_argument(
                        "variant '" + v->id + "' needs a " + std::string(to_string(v->layout)) +
                        " workload; the request carries " +
                        std::string(to_string(m.working.layout)) + " (not convertible)"));
        continue;
      }
      const void* key = workload_data_key(m.working);
      if (!s.has_negotiated || s.negotiated_src != key || s.negotiated_n != n ||
          s.negotiated_from != m.working.layout || s.negotiated_to != v->layout) {
        s.arena.reset();
        s.negotiated = core::convert(m.working, v->layout, s.arena, &s.convert_stats);
        s.has_negotiated = true;
        s.negotiated_src = key;
        s.negotiated_n = n;
        s.negotiated_from = m.working.layout;
        s.negotiated_to = v->layout;
        static obs::Counter& converts = obs::counter("engine.layout_converts");
        static obs::Counter& cbytes = obs::counter("engine.convert.bytes");
        static obs::Stat& csecs = obs::stat("engine.convert.seconds");
        converts.add(1);
        cbytes.add(s.convert_stats.bytes);
        csecs.record(s.convert_stats.seconds);
      } else {
        core::copy_inputs(m.working, s.negotiated);
      }
      m.view = &s.negotiated;
      m.negotiated = true;
      res.convert_seconds = s.convert_stats.seconds;
      res.convert_bytes = s.convert_stats.bytes;
    }
    m.n = n;
    m.live = true;
    total += n;
    ++live;
  }
  if (live == 0) return;

  // --- Deadline / cancellation ---------------------------------------------
  // The group runs under one deadline: the override, else the most urgent
  // member's. Its token (in the first member's Scratch) is polled by the
  // pool at chunk boundaries; each member's own cancel token is polled
  // before each of its segments.
  robust::CancelToken& token = group[0].req->scratch->token;
  double deadline = gs.deadline_seconds;
  if (deadline <= 0.0) {
    for (const GroupJob& j : group) {
      const double d = j.req->deadline_seconds;
      if (d > 0.0 && (deadline <= 0.0 || d < deadline)) deadline = d;
    }
  }
  token.reset();
  token.set_parent(nullptr);
  if (deadline > 0.0) token.set_deadline_after(deadline);
  const robust::CancelToken* cancel = deadline > 0.0 ? &token : nullptr;
  auto expired = [cancel](const PricingRequest& req) {
    return (cancel != nullptr && cancel->expired()) ||
           (req.cancel != nullptr && req.cancel->expired());
  };

  static obs::Counter& c_requests = obs::counter("engine.requests");
  static obs::Counter& c_items = obs::counter("engine.items");
  c_requests.add(live);
  FINBENCH_SPAN("engine.price");
  arch::WallTimer t;

  // Score this execution once on the variant's circuit breaker — except
  // when a member carries an injected FaultPlan, whose failures are test
  // machinery, not variant health (variant-scoped chaos faults do not
  // ride on the request and therefore do count).
  auto score_breaker = [&] {
    if (!resilience::BreakerRegistry::instance().enabled()) return;
    resilience::Breaker* breaker = nullptr;
    std::size_t failed = 0, late = 0, degraded = 0;
    for (const GroupJob& j : group) {
      if (!run_of(j).live) continue;
      if (j.req->faults.any()) return;
      breaker = j.req->scratch->breaker;
      failed += j.res->chunks_failed;
      late += j.res->chunks_deadline;
      degraded += j.res->chunks_degraded;
    }
    if (breaker == nullptr) return;
    breaker->record(failed > 0     ? resilience::Outcome::kError
                    : late > 0     ? resilience::Outcome::kDeadlineMiss
                    : degraded > 0 ? resilience::Outcome::kQuarantine
                                   : resilience::Outcome::kOk);
  };

  // A member's final bookkeeping: NaN out its sanitizer-skipped outputs,
  // aggregate a Status from what happened to it.
  auto conclude = [&](const GroupJob& j) {
    const PricingRequest& req = *j.req;
    PricingResult& res = *j.res;
    Scratch& s = *req.scratch;
    Scratch::Run& m = s.run;
    m.live = false;
    const std::size_t n = m.n, priced = m.priced;
    if (!res.option_faults.empty()) {
      mask_skipped_outputs(res.option_faults, res.values, res.std_errors,
                           m.negotiated ? req.portfolio : m.working);
    }
    res.items = priced;
    res.seconds = t.seconds();
    s.hist_request->record_seconds(res.seconds);
    c_items.add(priced);
    if (res.chunks_failed > 0) {
      obs::flight_auto_dump("kernel_error");
      finish(res, robust::Status::kernel_error(
                      std::to_string(res.chunks_failed) + " chunk(s) unrecoverable (" + m.error +
                      "); " + std::to_string(priced) + " of " + std::to_string(n) +
                      " option(s) priced"));
      return;
    }
    if (res.chunks_deadline > 0) {
      obs::counter("robust.deadline.expired").add(1);
      obs::flight_auto_dump("deadline_exceeded");
      finish(res, robust::Status::deadline_exceeded(
                      "deadline expired: " + std::to_string(priced) + " of " + std::to_string(n) +
                      " option(s) priced (" + std::to_string(res.chunks_deadline) +
                      " chunk(s) skipped; see PricingResult::chunk_status)"));
      return;
    }
    if (res.chunks_degraded > 0 || res.options_clamped > 0 || res.options_skipped > 0 ||
        res.options_repaired > 0) {
      if (res.chunks_degraded > 0) obs::flight_auto_dump("quarantine");
      finish(res, robust::Status::degraded(
                      std::to_string(res.options_clamped) + " clamped, " +
                      std::to_string(res.options_skipped) + " skipped, " +
                      std::to_string(res.options_repaired) + " repaired option(s), " +
                      std::to_string(res.chunks_degraded) + " fallback chunk(s)"));
      return;
    }
    finish(res, robust::Status{});
  };

  // --- Chunked execution ---------------------------------------------------
  // Every member's segments run on the pool. Black–Scholes segments write
  // the member's view's call/put arrays and each runs, on the worker that
  // owns it: the input check (when the scan is deferred), the kernel with
  // its output probe, and a guard pass over its own range only when the
  // probe failed, the guard checks bounds, faults are injected or a
  // sanitizer mask exists. Other segments write the member's res.values,
  // sized here (kPaths: as the variant's prepare hook says) so no range
  // ever allocates. A negotiated member's outputs land in the converted
  // arrays and are written back into the caller's portfolio after the run
  // — inside the timer, so res.seconds stays honest about what the
  // caller's layout costs.
  for (const GroupJob& j : group) {
    const PricingRequest& req = *j.req;
    PricingResult& res = *j.res;
    Scratch& s = *req.scratch;
    Scratch::Run& m = s.run;
    if (!m.live) continue;
    if (v->prepare) {
      try {
        v->prepare(req, *m.view);
      } catch (const std::exception& e) {
        m.live = false;
        total -= m.n;
        fail_early(res, robust::Status::kernel_error("variant '" + v->id +
                                                     "' prepare failed: " + e.what()));
        continue;
      }
    }
    // A range or the NaN fill writes every entry, so a buffer of the right
    // size (a reused result's) is kept as it stands.
    const std::size_t nv = bs ? 0 : v->layout == Layout::kPaths ? s.path_values : m.n;
    if (res.values.size() != nv) res.values.assign(nv, 0.0);
    if (v->has_std_error) res.std_errors.assign(m.n, 0.0);
  }
  if (total == 0) return;

  // Effective scheduling: the request's values for explicit dispatch, the
  // resolved plan's for auto (pins keep the caller's value — see
  // PricingRequest::pin_schedule/pin_chunks). Black–Scholes chunks are
  // uniform and always claimed dynamically.
  const bool bs_family = v->kernel == "bs";
  const arch::Schedule schedule = bs_family ? arch::Schedule::kDynamic : rd.schedule;
  const int P = pool_->size();
  const int nparts = schedule == arch::Schedule::kDynamic && !bs_family
                         ? P * std::max(1, rd.chunks_per_thread)
                         : P;
  plan_segments(*v, group, total, nparts, schedule, gs);
  for (const GroupJob& j : group) {
    if (run_of(j).live) {
      j.res->chunk_status.assign(run_of(j).segments,
                                 static_cast<std::uint8_t>(ChunkStatus::kNotRun));
    }
  }
  const std::size_t nchunks = gs.chunks.size() - 1;
  const char* site =
      schedule == arch::Schedule::kDynamic ? "engine.dynamic" : "engine.static";

  // One-pointer capture: the closure fits std::function's small-buffer
  // optimization, so submitting the run allocates nothing. A chunk runs
  // its segments that have not priced yet; kernel exceptions are contained
  // per segment — the segment is marked kFailed for the fallback pass below
  // and the pool never sees a failure, so the remaining work still runs.
  // A variant-scoped chaos fault is decided once per chunk: a slowed chunk
  // sleeps once, a thrown fault fails every segment the chunk prices.
  struct ChunkCtx {
    const VariantInfo* v;
    const GroupJob* group;
    const GroupScratch::Segment* segs;
    const std::size_t* chunks;
    const std::size_t* remap;  // rerun pass: run index -> chunk index
    std::uint64_t request_id;
    bool bs;
  };
  ChunkCtx ctx{v,          group.data(), gs.segments.data(), gs.chunks.data(),
               /*remap=*/nullptr, request_id, bs};
  const auto run_chunk = [&ctx](std::ptrdiff_t k) {
    FINBENCH_SPAN("engine.chunk");
    const std::size_t c = ctx.remap != nullptr ? ctx.remap[k] : static_cast<std::size_t>(k);
    std::exception_ptr chaos;
    if (resilience::chaos_active()) {
      try {
        resilience::maybe_inject(ctx.v->id.c_str(), ctx.request_id, c);
      } catch (...) {
        chaos = std::current_exception();
      }
    }
    for (std::size_t i = ctx.chunks[c]; i < ctx.chunks[c + 1]; ++i) {
      const GroupScratch::Segment& sg = ctx.segs[i];
      const PricingRequest& req = *ctx.group[sg.member].req;
      PricingResult& res = *ctx.group[sg.member].res;
      Scratch& s = *req.scratch;
      Scratch::Run& m = s.run;
      std::uint8_t& slot = res.chunk_status[sg.slot];
      if (slot != static_cast<std::uint8_t>(ChunkStatus::kNotRun) ||
          (req.cancel != nullptr && req.cancel->expired())) {
        continue;
      }
      const std::size_t begin = sg.begin, end = sg.end;
      const core::PortfolioView& view = *m.view;
      const double start_us = obs::trace::now_us();
      try {
        if (m.scan && !robust::bs_inputs_clean(view, begin, end)) {
          slot = kChunkRescan;  // outputs left alone; re-run after sanitize
        } else {
          if (req.faults.any_engine_side()) {
            inject_chunk_faults(req.faults, static_cast<std::ptrdiff_t>(sg.slot));
          }
          if (chaos) std::rethrow_exception(chaos);
          const bool finite = ctx.v->run_range(req, view, begin, end, res);
          const bool guard_on = req.guard.mode != robust::GuardMode::kOff;
          if (ctx.bs) {
            bool guard = !finite || req.guard.mode == robust::GuardMode::kFull ||
                         !res.option_faults.empty();
            if (req.faults.corrupt > 0.0) {
              inject_corrupt_bs(view, req.faults, begin, end);
              guard = true;
            }
            if (guard_on && guard) {
              m.repaired.fetch_add(
                  robust::guard_and_repair_bs(view, req.guard, res.option_faults, begin, end));
            }
            slot = static_cast<std::uint8_t>(ChunkStatus::kOk);
          } else {
            if (req.faults.corrupt > 0.0) {
              for_each_row(res.values, m.n, begin, end, [&](std::span<double> row) {
                inject_corrupt_values(row, begin, req.faults);
              });
            }
            if (guard_on && view.layout == Layout::kSpecs &&
                robust::guard_specs_range(view.specs.subspan(begin, end - begin),
                                          {res.values.data() + begin, end - begin}, req.guard,
                                          ctx.v->statistical, res.option_faults, begin) > 0) {
              record_error(m, "output guard failed");
              slot = static_cast<std::uint8_t>(ChunkStatus::kFailed);
            } else {
              slot = static_cast<std::uint8_t>(ChunkStatus::kOk);
            }
          }
        }
      } catch (const std::exception& e) {
        record_error(m, e.what());
        slot = static_cast<std::uint8_t>(ChunkStatus::kFailed);
      } catch (...) {
        record_error(m, "non-std exception from kernel");
        slot = static_cast<std::uint8_t>(ChunkStatus::kFailed);
      }
      const double end_us = obs::trace::now_us();
      s.hist_chunk->record_seconds((end_us - start_us) * 1e-6);
      record_flight(s, ctx.request_id, *ctx.v, sg,
                    slot == static_cast<std::uint8_t>(ChunkStatus::kOk) ? "ok"
                    : slot == kChunkRescan                               ? "rescan"
                                                                         : "failed",
                    ThreadPool::current_participant(), start_us, end_us);
    }
  };
  pool_->run(static_cast<std::ptrdiff_t>(nchunks), run_chunk, schedule, site, cancel);

  // --- Deferred sanitization (faulty inputs only) --------------------------
  // Segments whose input check failed priced nothing. The full sanitizer
  // then runs over that member's view exactly as an up-front scan would —
  // same mask, counters and in-place repairs — and only the chunks holding
  // such segments run again (their other segments are already priced).
  gs.rerun.clear();
  for (std::size_t c = 0; c < nchunks; ++c) {
    for (std::size_t i = gs.chunks[c]; i < gs.chunks[c + 1]; ++i) {
      const GroupScratch::Segment& sg = gs.segments[i];
      std::uint8_t& slot = group[sg.member].res->chunk_status[sg.slot];
      if (slot != kChunkRescan) continue;
      slot = static_cast<std::uint8_t>(ChunkStatus::kNotRun);
      run_of(group[sg.member]).rescan = true;
      if (gs.rerun.empty() || gs.rerun.back() != c) gs.rerun.push_back(c);
    }
  }
  for (const GroupJob& j : group) {
    const PricingRequest& req = *j.req;
    PricingResult& res = *j.res;
    Scratch& s = *req.scratch;
    Scratch::Run& m = s.run;
    if (!m.live || !m.scan) continue;
    m.scan = false;
    robust::SanitizeReport& san = s.sanitize_report;
    if (!m.rescan) {
      static obs::Counter& scanned = obs::counter("robust.sanitize.scanned");
      scanned.add(m.n);
      san.scanned = m.n;
      continue;
    }
    robust::sanitize(m.working, req.sanitize, san);
    res.option_faults = san.mask;
    res.options_clamped = san.clamped;
    res.options_skipped = san.skipped;
    if (m.negotiated) core::copy_inputs(m.working, s.negotiated);
  }
  if (!gs.rerun.empty()) {
    ctx.remap = gs.rerun.data();
    pool_->run(static_cast<std::ptrdiff_t>(gs.rerun.size()), run_chunk, schedule, site, cancel);
  }

  // --- Quarantine & fallback pass (serial, exceptional) --------------------
  // Per member and segment: a failed segment re-prices in place through
  // the fallback chain — each link on the variant's layout is prepared and
  // runs the segment's range, and its outputs are guarded again before
  // they are accepted; a Black–Scholes layout whose chain is exhausted
  // ends in the closed form. Runs on the caller thread, with the member's
  // task handoff off (the repair prices flat); a degraded repetition may
  // allocate — only clean steady-state repetitions are guaranteed
  // allocation-free.
  for (const GroupJob& j : group) {
    if (run_of(j).live) j.res->options_repaired += run_of(j).repaired.load();
  }
  for (const GroupScratch::Segment& sg : gs.segments) {
    const GroupJob& j = group[sg.member];
    const PricingRequest& req = *j.req;
    PricingResult& res = *j.res;
    Scratch& s = *req.scratch;
    Scratch::Run& m = s.run;
    const core::PortfolioView& view = *m.view;
    const std::size_t begin = sg.begin, end = sg.end;
    // Unpriced outputs read NaN, never a previous run's prices.
    auto nan_fill = [&] {
      if (bs) {
        for (std::size_t i = begin; i < end; ++i) {
          robust::bs_store_outputs(view, i, kQuietNan, kQuietNan);
        }
      } else {
        for_each_row(res.values, m.n, begin, end,
                     [](std::span<double> row) { std::fill(row.begin(), row.end(), kQuietNan); });
      }
    };
    // A fallback link's segment is accepted when its outputs pass the
    // guard: BS outputs are repaired in place as in the chunks, values
    // that fail the guard send the walk to the next link.
    auto guarded = [&](const VariantInfo& fb, bool finite) {
      if (req.guard.mode == robust::GuardMode::kOff) return true;
      if (bs) {
        if (!finite || req.guard.mode == robust::GuardMode::kFull ||
            !res.option_faults.empty()) {
          res.options_repaired +=
              robust::guard_and_repair_bs(view, req.guard, res.option_faults, begin, end);
        }
        return true;
      }
      return view.layout != Layout::kSpecs ||
             robust::guard_specs_range(view.specs.subspan(begin, end - begin),
                                       {res.values.data() + begin, end - begin}, req.guard,
                                       fb.statistical, res.option_faults, begin) == 0;
    };
    auto status = static_cast<ChunkStatus>(res.chunk_status[sg.slot]);
    if (status == ChunkStatus::kNotRun) {
      const bool late = expired(req);
      res.chunk_status[sg.slot] =
          static_cast<std::uint8_t>(late ? ChunkStatus::kDeadline : ChunkStatus::kNotRun);
      ++res.chunks_deadline;
      nan_fill();
      obs::counter("robust.deadline.chunks_skipped").add(1);
      record_flight(s, request_id, *v, sg, late ? "deadline" : "not_run");
      continue;
    }
    if (status == ChunkStatus::kFailed && req.fallback) {
      s.tasks_on = false;
      bool repaired = false;
      for (const VariantInfo* fb = fallback_of(*v); fb != nullptr && !repaired;
           fb = fallback_of(*fb)) {
        if (fb->layout != v->layout) break;
        if (fb->european_only && view.layout == Layout::kSpecs &&
            range_has_american(view.specs, begin, end)) {
          continue;
        }
        try {
          if (fb->prepare) fb->prepare(req, view);
          // A link writing another output shape (whole paths for a path
          // average) cannot fill this segment.
          if (view.layout == Layout::kPaths && s.path_values != res.values.size()) continue;
          repaired = guarded(*fb, fb->run_range(req, view, begin, end, res));
        } catch (...) {
          // next link
        }
      }
      if (!repaired && bs) {
        repair_bs_range(view, begin, end);
        res.options_repaired += end - begin;
        repaired = true;
      }
      if (repaired) {
        status = ChunkStatus::kDegraded;
        res.chunk_status[sg.slot] = static_cast<std::uint8_t>(status);
        ++res.chunks_degraded;
        obs::counter("robust.fallback.chunks").add(1);
        record_flight(s, request_id, *v, sg, "degraded");
      } else {
        obs::counter("robust.fallback.exhausted").add(1);
      }
    }
    if (status == ChunkStatus::kOk || status == ChunkStatus::kDegraded) {
      m.priced += end - begin;
    } else {
      ++res.chunks_failed;
      nan_fill();
    }
  }

  score_breaker();
  for (const GroupJob& j : group) {
    if (!run_of(j).live) continue;
    if (run_of(j).negotiated) core::copy_outputs(*run_of(j).view, j.req->portfolio);
    conclude(j);
  }
}

}  // namespace finbench::engine
