// Engine::price_group / Engine::fusable — the multi-request entry point
// (finbench/engine/group.hpp). A fusable group is one engine execution:
// a list of segments over the members' own views, run through the same
// chunk pipeline as Engine::price (which is a group of one), with each
// member sanitized, negotiated, guarded, repaired and reported on its own.
// Nothing is copied in or scattered back.

#include "finbench/engine/engine.hpp"
#include "finbench/tune/key.hpp"
#include "variants.hpp"

namespace finbench::engine {

bool Engine::fusable(const PricingRequest& a, const PricingRequest& b) {
  if (a.kernel_id != b.kernel_id) return false;
  // Fault injection is per-request by contract and indexes the request's
  // own chunks, so any active plan opts the request out.
  if (a.faults.any() || b.faults.any()) return false;
  if (a.steps != b.steps || a.steps_per_year != b.steps_per_year || a.npath != b.npath ||
      a.bridge_depth != b.bridge_depth || a.cn_num_prices != b.cn_num_prices ||
      a.seed != b.seed) {
    return false;
  }
  if (a.sanitize != b.sanitize || a.fallback != b.fallback ||
      a.guard.mode != b.guard.mode || a.guard.bound_slack != b.guard.bound_slack) {
    return false;
  }
  // Statistical estimators key their per-option RNG substreams by batch
  // index — fusing would change a member's answer depending on who it
  // shares a batch with. Deterministic kernels are element-wise across
  // options, so fusion is bitwise-neutral. Members need not share a
  // workload layout: each negotiates through its own Scratch.
  auto deterministic = [](const VariantInfo* v) { return v != nullptr && !v->statistical; };
  // Auto-intent pairs fuse on their *resolved* plans, not the intent
  // string: both must land on the same concrete variant with the same
  // effective schedule and chunk granularity (each member resolves through
  // its own scratch, so steady-state checks are cache hits, not races).
  if (tune::is_auto_id(a.kernel_id)) {
    const ResolvedDispatch ra = resolve_dispatch(Engine::shared(), a);
    const ResolvedDispatch rb = resolve_dispatch(Engine::shared(), b);
    return deterministic(ra.v) && ra.v == rb.v && ra.schedule == rb.schedule &&
           ra.chunks_per_thread == rb.chunks_per_thread;
  }
  return deterministic(Registry::instance().find(a.kernel_id));
}

void Engine::price_group(std::span<const GroupJob> group, GroupScratch& gs) const {
  if (group.empty()) return;
  for (const GroupJob& j : group.subspan(1)) {
    if (!fusable(*group[0].req, *j.req)) {
      // A mis-grouped member would get a changed answer; price everyone
      // individually instead of silently mis-fusing.
      for (const GroupJob& m : group) price(*m.req, *m.res);
      return;
    }
  }
  execute(group, gs);
}

}  // namespace finbench::engine
