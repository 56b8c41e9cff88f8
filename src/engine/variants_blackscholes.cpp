// Registry adapters for the Black–Scholes kernel family (paper Fig. 4).
//
// These variants consume a Black–Scholes portfolio view and write prices
// into its arrays (PricingResult::values stays empty: the kernel is
// bandwidth-bound, and copying millions of outputs would distort exactly
// what Fig. 4 measures). run_batch is the kernels' whole-batch entry, whose
// OpenMP split of the batch IS the Fig. 4 experiment. Every row also has
// run_range, the kernel's range body that run_batch splits across the
// team, run serially on the calling thread: the engine prices every row in
// chunks on its pool, each chunk checking its inputs, pricing, and
// reporting its output probe.
// A request in the "wrong" BS layout is not an error: the engine
// negotiates it into the view these adapters receive.

#include "finbench/kernels/blackscholes.hpp"
#include "variants.hpp"

namespace finbench::engine {

namespace {

using core::OptLevel;
using kernels::bs::Width;
using kernels::bs::WidthF;

double flops(const PricingRequest&) { return kernels::bs::kFlopsPerOption; }
double bytes(const PricingRequest&) { return kernels::bs::kBytesPerOption; }
double bytes_sp(const PricingRequest&) { return kernels::bs::kBytesPerOption / 2; }

template <void (*K)(core::BsAosView)>
void run_aos(const PricingRequest&, const core::PortfolioView& view, PricingResult& res) {
  K(view.aos);
  res.items = view.aos.size();
}

template <bool (*K)(core::BsAosView, std::size_t, std::size_t)>
bool range_aos(const PricingRequest&, const core::PortfolioView& view, std::size_t begin,
               std::size_t end, PricingResult&) {
  return K(view.aos, begin, end);
}

template <Width W>
void run_intermediate(const PricingRequest&, const core::PortfolioView& view,
                      PricingResult& res) {
  kernels::bs::price_intermediate(view.soa, W);
  res.items = view.soa.size();
}

template <Width W>
bool range_intermediate(const PricingRequest&, const core::PortfolioView& view,
                        std::size_t begin, std::size_t end, PricingResult&) {
  return kernels::bs::price_intermediate(view.soa, begin, end, W);
}

// The VML temporaries (d1/d2/xexp/qlog) lease from the request's vml pool,
// one slot per concurrent range; reserve() is an idempotent no-op after the
// first pricing, so steady-state repetitions never allocate.
void reserve_vml(const PricingRequest& req, const core::PortfolioView&) {
  Scratch& s = scratch_of(req);
  s.vml_pool.reserve(s.kernel_arena, 4 * kernels::bs::kVmlChunk, scratch_slots());
}

template <Width W>
void run_advanced_vml(const PricingRequest& req, const core::PortfolioView& view,
                      PricingResult& res) {
  reserve_vml(req, view);
  kernels::bs::price_advanced_vml(view.soa, W, &scratch_of(req).vml_pool);
  res.items = view.soa.size();
}

template <Width W>
bool range_advanced_vml(const PricingRequest& req, const core::PortfolioView& view,
                        std::size_t begin, std::size_t end, PricingResult&) {
  return kernels::bs::price_advanced_vml(view.soa, begin, end, W, &scratch_of(req).vml_pool);
}

void run_intermediate_sp(const PricingRequest&, const core::PortfolioView& view,
                         PricingResult& res) {
  kernels::bs::price_intermediate_sp(view.sp, WidthF::kAuto);
  res.items = view.sp.size();
}

bool range_intermediate_sp(const PricingRequest&, const core::PortfolioView& view,
                           std::size_t begin, std::size_t end, PricingResult&) {
  return kernels::bs::price_intermediate_sp(view.sp, begin, end, WidthF::kAuto);
}

template <Width W>
void run_blocked(const PricingRequest&, const core::PortfolioView& view, PricingResult& res) {
  kernels::bs::price_blocked(view.blocked, W);
  res.items = view.blocked.size();
}

template <Width W>
bool range_blocked(const PricingRequest&, const core::PortfolioView& view, std::size_t begin,
                   std::size_t end, PricingResult&) {
  return kernels::bs::price_blocked(view.blocked, begin, end, W);
}

template <WidthF W>
void run_blocked_sp(const PricingRequest&, const core::PortfolioView& view,
                    PricingResult& res) {
  kernels::bs::price_blocked_sp(view.blocked, W);
  res.items = view.blocked.size();
}

template <WidthF W>
bool range_blocked_sp(const PricingRequest&, const core::PortfolioView& view,
                      std::size_t begin, std::size_t end, PricingResult&) {
  return kernels::bs::price_blocked_sp(view.blocked, begin, end, W);
}

template <WidthF W>
void run_fused_sp(const PricingRequest&, const core::PortfolioView& view, PricingResult& res) {
  kernels::bs::price_blocked_from_aos_f32(view.aos, W);
  res.items = view.aos.size();
}

template <WidthF W>
bool range_fused_sp(const PricingRequest&, const core::PortfolioView& view, std::size_t begin,
                    std::size_t end, PricingResult&) {
  return kernels::bs::price_blocked_from_aos_f32(view.aos, begin, end, W);
}

VariantInfo base(const char* id, OptLevel level, int width, Layout layout, const char* desc) {
  VariantInfo v;
  v.id = id;
  v.kernel = "bs";
  v.level = level;
  v.width = width;
  v.layout = layout;
  v.exhibit = "Fig. 4";
  v.description = desc;
  v.reference_id = "bs.reference.scalar";
  v.flops_per_item = flops;
  v.bytes_per_item = bytes;
  v.european_only = true;  // closed form: European by construction
  return v;
}

}  // namespace

void register_blackscholes(Registry& r) {
  {
    VariantInfo v = base("bs.reference.scalar", OptLevel::kReference, 1, Layout::kBsAos,
                         "scalar AOS loop, cnd via libm erfc (Lis. 1)");
    v.reference_id = "";
    v.run_batch = run_aos<kernels::bs::price_reference>;
    v.run_range = range_aos<kernels::bs::price_reference>;
    r.add(std::move(v));
  }
  {
    VariantInfo v = base("bs.basic.auto", OptLevel::kBasic, 0, Layout::kBsAos,
                         "AOS loop under pragma omp parallel for simd");
    v.tolerance = 1e-12;
    v.run_batch = run_aos<kernels::bs::price_basic>;
    v.run_range = range_aos<kernels::bs::price_basic>;
    r.add(std::move(v));
  }
  {
    VariantInfo v = base("bs.intermediate.avx2", OptLevel::kIntermediate, 4, Layout::kBsSoa,
                         "SOA + 4-wide SIMD across options, erf substitution, put via parity");
    v.tolerance = 1e-9;
    v.run_batch = run_intermediate<Width::kAvx2>;
    v.run_range = range_intermediate<Width::kAvx2>;
    r.add(std::move(v));
  }
  {
    VariantInfo v = base("bs.intermediate.auto", OptLevel::kIntermediate, 0, Layout::kBsSoa,
                         "SOA + widest SIMD across options, erf substitution, put via parity");
    v.tolerance = 1e-9;
    v.run_batch = run_intermediate<Width::kAuto>;
    v.run_range = range_intermediate<Width::kAuto>;
    r.add(std::move(v));
  }
  {
    VariantInfo v = base("bs.advanced_vml.avx2", OptLevel::kAdvanced, 4, Layout::kBsSoa,
                         "SOA + VML-style whole-array transcendental passes, 4-wide");
    v.tolerance = 1e-8;
    // Graceful degradation: a failed VML batch re-prices through the
    // plain intermediate SOA kernel; the scalar closed form is the
    // engine's terminal repair for any BS layout (docs/robustness.md).
    v.fallback_id = "bs.intermediate.avx2";
    v.prepare = reserve_vml;
    v.run_batch = run_advanced_vml<Width::kAvx2>;
    v.run_range = range_advanced_vml<Width::kAvx2>;
    r.add(std::move(v));
  }
  {
    VariantInfo v = base("bs.advanced_vml.auto", OptLevel::kAdvanced, 0, Layout::kBsSoa,
                         "SOA + VML-style whole-array transcendental passes, widest");
    v.tolerance = 1e-8;
    v.fallback_id = "bs.intermediate.auto";
    v.prepare = reserve_vml;
    v.run_batch = run_advanced_vml<Width::kAuto>;
    v.run_range = range_advanced_vml<Width::kAuto>;
    r.add(std::move(v));
  }
  {
    VariantInfo v = base("bs.intermediate_sp.auto", OptLevel::kIntermediate, 0, Layout::kBsSoaF,
                         "single-precision SOA SIMD (twice the lanes, half the bytes)");
    v.tolerance = 1e-3;  // SP arithmetic vs the DP reference
    v.bytes_per_item = bytes_sp;
    v.run_batch = run_intermediate_sp;
    v.run_range = range_intermediate_sp;
    r.add(std::move(v));
  }
  // --- Register-tiled blocked (AoSoA) family ------------------------------
  // One lane-block sub-run per register tile straight off the blocked
  // layout: no gathers, streaming stores, x2 unroll. The 8-wide DP and
  // 16-wide SP entries need AVX-512 at runtime; their fallback chain steps
  // down to the 4-/8-wide flavors on narrower hosts without leaving the
  // blocked layout (fallbacks must share the layout).
  {
    VariantInfo v = base("blackscholes.blocked.4", OptLevel::kAdvanced, 4, Layout::kBsBlocked,
                         "AoSoA register tiles, 4-wide DP, streaming stores");
    v.tolerance = 1e-9;
    v.run_batch = run_blocked<Width::kAvx2>;
    v.run_range = range_blocked<Width::kAvx2>;
    r.add(std::move(v));
  }
  {
    VariantInfo v = base("blackscholes.blocked.8", OptLevel::kAdvanced, 8, Layout::kBsBlocked,
                         "AoSoA register tiles, 8-wide DP (AVX-512), streaming stores");
    v.tolerance = 1e-9;
    v.fallback_id = "blackscholes.blocked.4";
    v.run_batch = run_blocked<Width::kAuto>;
    v.run_range = range_blocked<Width::kAuto>;
    r.add(std::move(v));
  }
  {
    VariantInfo v = base("blackscholes.blocked.8f", OptLevel::kAdvanced, 8, Layout::kBsBlocked,
                         "AoSoA register tiles, 8-wide SP compute in register");
    v.tolerance = 1e-3;  // SP arithmetic vs the DP reference
    v.bytes_per_item = bytes;  // storage stays f64: full 40 B/option move
    v.run_batch = run_blocked_sp<WidthF::kAvx2>;
    v.run_range = range_blocked_sp<WidthF::kAvx2>;
    r.add(std::move(v));
  }
  {
    VariantInfo v = base("blackscholes.blocked.16f", OptLevel::kAdvanced, 16, Layout::kBsBlocked,
                         "AoSoA register tiles, 16-wide SP (AVX-512) compute in register");
    v.tolerance = 1e-3;
    v.bytes_per_item = bytes;
    v.fallback_id = "blackscholes.blocked.8f";
    v.run_batch = run_blocked_sp<WidthF::kAuto>;
    v.run_range = range_blocked_sp<WidthF::kAuto>;
    r.add(std::move(v));
  }
  // --- Fused AOS -> f32 register tile (incl. conversion) -------------------
  // The SP analog of the fused DP pipeline: the request stays in its
  // native AOS layout (no negotiation, no blocked array in DRAM) and the
  // f64 -> f32 narrowing rides the register tile. Fallbacks stay in the
  // AOS layout as required.
  {
    VariantInfo v = base("blackscholes.blocked_fused.8f", OptLevel::kAdvanced, 8, Layout::kBsAos,
                         "fused AOS -> f32 register tile incl. conversion, 8-wide SP");
    v.tolerance = 1e-3;  // SP arithmetic vs the DP reference
    v.bytes_per_item = bytes;  // storage stays f64 AOS: full 40 B/option move
    v.run_batch = run_fused_sp<WidthF::kAvx2>;
    v.run_range = range_fused_sp<WidthF::kAvx2>;
    r.add(std::move(v));
  }
  {
    VariantInfo v = base("blackscholes.blocked_fused.16f", OptLevel::kAdvanced, 16,
                         Layout::kBsAos,
                         "fused AOS -> f32 register tile incl. conversion, 16-wide SP (AVX-512)");
    v.tolerance = 1e-3;
    v.bytes_per_item = bytes;
    v.fallback_id = "blackscholes.blocked_fused.8f";
    v.run_batch = run_fused_sp<WidthF::kAuto>;
    v.run_range = range_fused_sp<WidthF::kAuto>;
    r.add(std::move(v));
  }
}

}  // namespace finbench::engine
