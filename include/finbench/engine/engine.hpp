// finbench/engine/engine.hpp
//
// The batched pricing engine: looks the requested variant up in the
// registry, *negotiates* the workload layout against the variant's
// required layout (a convertible mismatch — e.g. an AOS portfolio priced
// by an SOA variant — is converted once through the request's arena,
// cached across repetitions, and its one-time cost reported in
// PricingResult::convert_seconds/convert_bytes; outputs are copied back
// into the caller's portfolio after every run, inside the timed region),
// partitions every workload into chunks — Black–Scholes arrays into
// up-to-16K-option chunks that check, price and guard themselves, the
// rest into cost-model-weighted or equal stripes — and executes them
// through each variant's run_range on a persistent thread pool with
// dynamic chunk self-scheduling (PricingRequest::schedule selects
// dynamic/static outside the Black–Scholes family). A request is priced
// as a group of one: the same chunk pipeline prices a coalesced group's
// members in place (finbench/engine/group.hpp).
//
// Steady state is allocation-free: re-pricing the same request through
// the two-argument price() overload performs zero heap allocations per
// repetition — conversion buffers live in the request arena, chunk bounds
// and result buffers are cached in the request Scratch, and the chunk
// closure fits std::function's small-buffer optimization
// (tests/test_engine_alloc.cpp proves this with a counting operator new).
//
// Execution is reported through finbench::obs: chunk spans on the trace,
// "engine.requests" / "engine.items" / "engine.layout_converts" /
// "engine.convert.bytes" counters, the "engine.convert.seconds" stat, and
// — when parallel timing is enabled — per-participant CPU-time imbalance
// under "parallel.engine.<schedule>.*".

#pragma once

#include <span>

#include "finbench/engine/group.hpp"
#include "finbench/engine/registry.hpp"
#include "finbench/engine/request.hpp"
#include "finbench/engine/thread_pool.hpp"

namespace finbench::engine {

class Engine {
 public:
  // pool == nullptr: use ThreadPool::shared().
  explicit Engine(ThreadPool* pool = nullptr);

  // Price one request. Never throws for workload/registry errors — they
  // come back as !result.status.ok() with a message; kernel exceptions
  // propagate.
  PricingResult price(const PricingRequest& req) const;

  // Re-entrant form: prices into an existing result, reusing its buffers.
  // Repeat loops (benchmarks, servers) use this overload — after the first
  // call, re-pricing the same request is heap-allocation-free.
  void price(const PricingRequest& req, PricingResult& res) const;

  // Multi-request entry point (finbench/engine/group.hpp): price every
  // member in place, in its own arrays, in a single execution with
  // per-member outputs and statuses. Members must be pairwise fusable with
  // group[0] — otherwise every member is priced individually rather than
  // silently mis-fused. `scratch` is caller-owned and reused; steady-state
  // same-shaped groups are heap-allocation-free.
  void price_group(std::span<const GroupJob> group, GroupScratch& scratch) const;

  // True when `a` and `b` may share one execution: same variant, which is
  // deterministic (non-statistical), matching accuracy/robustness knobs,
  // and no active fault plan. Their workload layouts may differ: each
  // member negotiates on its own. Auto-intent requests ("blackscholes.auto") compare by
  // *resolved plan*: both resolve through the tuner first and fuse only
  // when they land on the same concrete variant, schedule, and chunk
  // granularity.
  static bool fusable(const PricingRequest& a, const PricingRequest& b);

  // Participants the engine executes with (pool workers + caller). The
  // tuner keys plans on this: a plan raced at one pool size does not
  // dispatch another.
  int pool_size() const;

  // Process-wide engine over ThreadPool::shared().
  static Engine& shared();

 private:
  // The one execution behind price and price_group.
  void execute(std::span<const GroupJob> group, GroupScratch& gs) const;

  ThreadPool* pool_;
};

}  // namespace finbench::engine
