// Registry adapters for the Brownian-bridge kernel family (paper Fig. 6).
//
// Path construction is a kPaths workload: the variants build nsim paths
// into PricingResult::values in the kernels' point-major layout (point c of
// simulation s at values[c * nsim + s]); the fused variant returns one
// path average per simulation instead. Pre-generated normals (and their
// lane-blocked reordering for the SIMD variants) live in the request
// Scratch, so repeated pricings time only the construction — Fig. 6's
// "timings do not account for random number generation". Every variant
// has run_range, the kernel's range body over paths [begin, end), which
// the engine runs in chunks on its pool; run_batch is the kernel's
// whole-batch entry, an OpenMP split over the same body.

#include "finbench/kernels/brownian.hpp"
#include "finbench/rng/normal.hpp"
#include "finbench/simd/vec.hpp"
#include "variants.hpp"

namespace finbench::engine {

namespace {

using core::OptLevel;
using kernels::brownian::BridgeSchedule;
using kernels::brownian::Width;

double flops(const PricingRequest& req) {
  return kernels::brownian::flops_per_path(req.bridge_depth);
}
double bytes_stream(const PricingRequest& req) {
  const double zn = static_cast<double>(std::size_t{1} << req.bridge_depth);
  return 8.0 * (2.0 * zn + 1.0);  // normals in, path out
}
double bytes_interleaved(const PricingRequest& req) {
  return 8.0 * static_cast<double>((std::size_t{1} << req.bridge_depth) + 1);
}
double bytes_fused(const PricingRequest&) { return 8.0; }

constexpr int kAutoLanes = simd::kMaxVectorWidth;  // Width::kAuto
constexpr int lanes_of(Width w) { return w == Width::kAuto ? kAutoLanes : static_cast<int>(w); }

// What a variant needs before a range runs: the bridge schedule, the
// per-range path buffers, the output count (whole paths, or one average
// per path) and — for the pre-generated-normal variants, Lanes > 0 — the
// normals, lane-blocked for a SIMD width wider than one.
template <int Lanes, bool Average = false>
void prepare(const PricingRequest& req, const core::PortfolioView& view) {
  Scratch& s = scratch_of(req);
  if (!s.sched || s.sched->depth() != req.bridge_depth) {
    s.sched = std::make_unique<BridgeSchedule>(BridgeSchedule::uniform(req.bridge_depth, 1.0));
    s.bb_z.clear();
    s.bb_z_blocked.clear();
    s.bb_blocked_width = 0;
  }
  s.path_pool.reserve(s.kernel_arena,
                      kernels::brownian::range_scratch_doubles(*s.sched, kAutoLanes),
                      scratch_slots());
  s.path_values = Average ? view.npaths : view.npaths * s.sched->num_points();
  const std::size_t need = Lanes > 0 ? view.npaths * s.sched->normals_per_path() : 0;
  if (s.bb_z.size() < need) {
    s.bb_z.resize(need);
    rng::NormalStream stream(req.seed);
    stream.fill({s.bb_z.data(), s.bb_z.size()});
    s.bb_z_blocked.clear();
    s.bb_blocked_width = 0;
  }
  if (Lanes > 1 && s.bb_blocked_width != Lanes) {
    s.bb_z_blocked = kernels::brownian::lane_block_normals(
        s.bb_z, view.npaths, s.sched->normals_per_path(), Lanes);
    s.bb_blocked_width = Lanes;
  }
}

// The whole batch through the kernel's batch entry, after `Prepare`.
template <void (*Prepare)(const PricingRequest&, const core::PortfolioView&)>
Scratch& batch_prepared(const PricingRequest& req, const core::PortfolioView& view,
                        PricingResult& res) {
  Prepare(req, view);
  Scratch& s = *req.scratch;
  if (res.values.size() != s.path_values) res.values.assign(s.path_values, 0.0);
  res.items = view.npaths;
  return s;
}

bool range_reference(const PricingRequest& req, const core::PortfolioView& view,
                     std::size_t begin, std::size_t end, PricingResult& res) {
  Scratch& s = *req.scratch;  // built by prepare<1>
  kernels::brownian::construct_reference(*s.sched, s.bb_z, view.npaths, res.values, begin, end,
                                         &s.path_pool);
  return true;
}

void run_reference(const PricingRequest& req, const core::PortfolioView& view,
                   PricingResult& res) {
  Scratch& s = batch_prepared<prepare<1>>(req, view, res);
  kernels::brownian::construct_reference(*s.sched, s.bb_z, view.npaths, res.values);
}

void run_basic(const PricingRequest& req, const core::PortfolioView& view,
               PricingResult& res) {
  Scratch& s = batch_prepared<prepare<1>>(req, view, res);
  kernels::brownian::construct_basic(*s.sched, s.bb_z, view.npaths, res.values);
}

template <Width W>
bool range_intermediate(const PricingRequest& req, const core::PortfolioView& view,
                        std::size_t begin, std::size_t end, PricingResult& res) {
  Scratch& s = *req.scratch;  // built by prepare<lanes_of(W)>
  kernels::brownian::construct_intermediate(*s.sched, s.bb_z_blocked, view.npaths, res.values,
                                            begin, end, W, &s.path_pool);
  return true;
}

template <Width W>
void run_intermediate(const PricingRequest& req, const core::PortfolioView& view,
                      PricingResult& res) {
  Scratch& s = batch_prepared<prepare<lanes_of(W)>>(req, view, res);
  kernels::brownian::construct_intermediate(*s.sched, s.bb_z_blocked, view.npaths, res.values,
                                            W);
}

bool range_interleaved(const PricingRequest& req, const core::PortfolioView& view,
                       std::size_t begin, std::size_t end, PricingResult& res) {
  Scratch& s = *req.scratch;  // built by prepare<0>
  kernels::brownian::construct_advanced_interleaved(*s.sched, req.seed, view.npaths, res.values,
                                                    begin, end, Width::kAuto, &s.path_pool);
  return true;
}

void run_interleaved(const PricingRequest& req, const core::PortfolioView& view,
                     PricingResult& res) {
  Scratch& s = batch_prepared<prepare<0>>(req, view, res);
  kernels::brownian::construct_advanced_interleaved(*s.sched, req.seed, view.npaths,
                                                    res.values, Width::kAuto);
}

bool range_fused(const PricingRequest& req, const core::PortfolioView& view, std::size_t begin,
                 std::size_t end, PricingResult& res) {
  Scratch& s = *req.scratch;  // built by prepare<0, true>
  kernels::brownian::construct_advanced_fused(*s.sched, req.seed, view.npaths, res.values,
                                              begin, end, Width::kAuto, &s.path_pool);
  return true;
}

void run_fused(const PricingRequest& req, const core::PortfolioView& view,
               PricingResult& res) {
  Scratch& s = batch_prepared<prepare<0, true>>(req, view, res);
  kernels::brownian::construct_advanced_fused(*s.sched, req.seed, view.npaths, res.values,
                                              Width::kAuto);
}

VariantInfo base(const char* id, OptLevel level, int width, const char* desc) {
  VariantInfo v;
  v.id = id;
  v.kernel = "brownian";
  v.level = level;
  v.width = width;
  v.layout = Layout::kPaths;
  v.exhibit = "Fig. 6";
  v.description = desc;
  v.reference_id = "brownian.reference.scalar";
  v.tolerance = 1e-12;
  v.flops_per_item = flops;
  v.bytes_per_item = bytes_stream;
  return v;
}

}  // namespace

void register_brownian(Registry& r) {
  {
    VariantInfo v = base("brownian.reference.scalar", OptLevel::kReference, 1,
                         "per-path scalar midpoint refinement (Lis. 4)");
    v.reference_id = "";
    v.prepare = prepare<1>;
    v.run_batch = run_reference;
    v.run_range = range_reference;
    r.add(std::move(v));
  }
  {
    VariantInfo v = base("brownian.basic.scalar", OptLevel::kBasic, 1,
                         "scalar construction + OpenMP across paths, simd pragmas");
    v.prepare = prepare<1>;
    v.run_batch = run_basic;
    v.run_range = range_reference;
    r.add(std::move(v));
  }
  {
    VariantInfo v = base("brownian.intermediate.avx2", OptLevel::kIntermediate, 4,
                         "4 paths per SIMD lane group, lane-blocked normals");
    v.prepare = prepare<lanes_of(Width::kAvx2)>;
    v.run_batch = run_intermediate<Width::kAvx2>;
    v.run_range = range_intermediate<Width::kAvx2>;
    r.add(std::move(v));
  }
  {
    VariantInfo v = base("brownian.intermediate.auto", OptLevel::kIntermediate, 0,
                         "widest SIMD across paths, lane-blocked normals");
    v.prepare = prepare<lanes_of(Width::kAuto)>;
    v.run_batch = run_intermediate<Width::kAuto>;
    v.run_range = range_intermediate<Width::kAuto>;
    r.add(std::move(v));
  }
  {
    VariantInfo v = base("brownian.advanced_interleaved.auto", OptLevel::kAdvanced, 0,
                         "normals generated on the fly in cache-resident chunks");
    // Fallback chain: advanced_* -> intermediate -> reference.
    v.fallback_id = "brownian.intermediate.auto";
    v.statistical = true;  // draws its own normals
    v.tolerance = 0.08;    // |mean| band at >= 4096 validation paths
    v.bytes_per_item = bytes_interleaved;
    v.prepare = prepare<0>;
    v.run_batch = run_interleaved;
    v.run_range = range_interleaved;
    r.add(std::move(v));
  }
  {
    VariantInfo v = base("brownian.advanced_fused.auto", OptLevel::kAdvanced, 0,
                         "cache-to-cache: path consumed (averaged) without touching DRAM");
    // The chain's links build whole paths, which cannot fill a segment of
    // path averages: the engine skips them, so a failed fused segment is
    // reported, not repaired.
    v.fallback_id = "brownian.intermediate.auto";
    v.statistical = true;
    v.tolerance = 0.08;
    v.bytes_per_item = bytes_fused;
    v.prepare = prepare<0, true>;
    v.run_batch = run_fused;
    v.run_range = range_fused;
    r.add(std::move(v));
  }
}

}  // namespace finbench::engine
