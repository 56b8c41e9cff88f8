// finbench/engine/group.hpp
//
// The engine's multi-request entry point: N compatible PricingRequests
// priced in one engine execution, each in place in its own arrays. This is
// what serve::Server's coalescer rides on — one pool run, one deadline and
// one breaker outcome amortize across the group instead of being paid once
// per small request. Engine::price is the same execution with one member.
//
// An execution is a list of segments (member, [begin, end)) over the
// members' own views, packed into chunks: a chunk holds whole small
// members, or an aligned slice of a large one, up to the size a single
// request of the group's total would get. Each member is otherwise priced
// as if alone: it is sanitized (kReject rejects only that member),
// negotiated through its own Scratch, input-checked, priced and guarded
// inside its chunks with its own policy, and gets its own fallback, NaN
// fill, writeback and status.
//
// Fusion contract (Engine::fusable): two requests fuse when they resolve
// to the same kernel variant, the variant is deterministic, and the
// requests agree on every accuracy and robustness knob and carry no active
// fault plan. Members may carry different workload layouts (each
// negotiates into the variant's layout through its own Scratch) and sit on
// different (rate, vol, dividend) curves: each member's kernel reads its
// own view's scalars. Statistical estimators (Monte Carlo) never fuse:
// their per-option RNG substreams are keyed by batch index, so coalescing
// would change the answer a request gets depending on who it shares a
// batch with.
//
// Determinism: every segment starts at an offset within its member that
// the member's solo chunking could also produce (0, or a multiple of the
// widest lane count), so a member's options meet the kernel in the same
// SIMD lane groups as when it is priced alone, and its prices are bitwise
// identical either way — tests/test_serve.cpp, tests/test_robust.cpp and
// tests/test_engine_lattice.cpp assert this.
//
// GroupScratch is caller-owned and reused across calls; after warm-up, a
// steady state of same-shaped groups prices with zero heap allocations
// (the segment buffers retain capacity, and each member keeps its own
// engine Scratch). A group's members must be distinct request objects.

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "finbench/engine/request.hpp"

namespace finbench::engine {

// One member of a group: the request to price and where its outcome lands.
// Outputs go to the member's own portfolio arrays (BS layouts) or result
// values (kSpecs), exactly as in Engine::price.
struct GroupJob {
  const PricingRequest* req = nullptr;
  PricingResult* res = nullptr;
};

// Caller-owned state reused across price_group calls.
struct GroupScratch {
  // Group deadline override in seconds; 0 = the most urgent member's.
  double deadline_seconds = 0.0;

  // The execution plan, rebuilt by every call into retained capacity.
  struct Segment {
    std::uint32_t member = 0;        // index into the group
    std::uint32_t slot = 0;          // the member's chunk_status entry
    std::size_t begin = 0, end = 0;  // the member's options [begin, end)
  };
  std::vector<Segment> segments;
  std::vector<std::size_t> chunks;  // chunk c = segments [chunks[c], chunks[c+1])
  std::vector<std::size_t> rerun;   // chunks re-run after a deferred sanitize
};

}  // namespace finbench::engine
