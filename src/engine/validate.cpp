// Registry self-validation. Each variant prices a canonical deterministic
// workload through its run_range adapter — the body the engine's chunks
// run, here over the whole workload on the calling thread — and so does
// its linked reference; agreement is judged by the variant's registered
// tolerance. The same facility backs tests/test_engine.cpp and
// `pricectl --validate`.

#include "finbench/engine/validate.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "finbench/core/workload.hpp"
#include "finbench/robust/guards.hpp"
#include "variants.hpp"

namespace finbench::engine {

namespace {

struct Outputs {
  std::vector<double> values;
  std::vector<double> std_errors;
};

// Shared knobs, deliberately small: validation runs inside the test suite.
constexpr std::uint64_t kSeed = 9;
constexpr int kBinomialSteps = 256;
// Per-option depths for the lattice pass: years 0.25..3 give 32..384 steps.
constexpr int kBinomialStepsPerYear = 128;
constexpr std::size_t kMcPaths = 16384;
constexpr int kCnSteps = 128;
constexpr int kCnPrices = 65;
constexpr int kBridgeDepth = 6;

PricingRequest knobs_for(const VariantInfo& v) {
  PricingRequest req;
  req.kernel_id = v.id;
  req.seed = kSeed;
  req.steps = v.kernel == "cn" ? kCnSteps : kBinomialSteps;
  req.npath = kMcPaths;
  req.cn_num_prices = kCnPrices;
  req.bridge_depth = kBridgeDepth;
  return req;
}

// The per-family canonical workload: identical for a variant and its
// reference, restricted to what the narrower of the two supports. `mixed`
// alternates European and American binomial options.
std::vector<core::OptionSpec> specs_for(const VariantInfo& v, std::size_t n, bool mixed) {
  core::SingleOptionWorkloadParams p;
  if (v.kernel == "cn") {
    n = std::min<std::size_t>(n, 8);
    p.style = core::ExerciseStyle::kAmerican;
    p.vol_min = 0.2;
    p.vol_max = 0.4;
  } else if (v.kernel == "mc") {
    n = std::min<std::size_t>(n, 16);
  } else {  // binomial
    n = std::min<std::size_t>(n, 32);
    p.style = v.european_only ? core::ExerciseStyle::kEuropean : core::ExerciseStyle::kAmerican;
  }
  std::vector<core::OptionSpec> specs = core::make_option_workload(n, kSeed, p);
  if (mixed) {
    for (std::size_t i = 0; i < specs.size(); i += 2) {
      specs[i].style = core::ExerciseStyle::kEuropean;
    }
  }
  return specs;
}

// Run `v` on the canonical workload for comparison subject `subject` (the
// non-reference variant, which decides workload restrictions): one serial
// run_range over the whole workload, prepared and sized as the engine
// prepares a member. A positive `steps_per_year` prices a mixed-style book
// at per-option lattice depths. Black–Scholes layouts price into the view;
// their outputs are read back as (call, put) pairs.
Outputs run_one(const VariantInfo& v, const VariantInfo& subject, std::size_t n,
                int steps_per_year = 0) {
  PricingRequest req = knobs_for(subject);
  req.kernel_id = v.id;
  req.steps_per_year = steps_per_year;
  std::vector<core::OptionSpec> specs;
  core::Portfolio pf;
  if (v.layout == Layout::kPaths) {
    req.portfolio =
        core::paths_view(subject.statistical ? 8192 : std::max<std::size_t>(n, 256));
  } else if (v.layout == Layout::kSpecs) {
    specs = specs_for(subject, n, steps_per_year > 0);
    req.portfolio = core::view_of(std::span<const core::OptionSpec>(specs));
  } else {
    // One portfolio constructor covers every BS layout — all derive from
    // the same AOS-ordered generator draw, so a variant and its reference
    // see bitwise-identical inputs regardless of their native layouts.
    pf = core::Portfolio::bs(n, v.layout, kSeed);
    req.portfolio = pf.view();
  }
  PricingResult res;
  if (v.prepare) v.prepare(req, req.portfolio);
  const std::size_t items = req.portfolio.size();
  const bool bs = robust::is_bs_layout(req.portfolio);
  const std::size_t outputs = v.layout == Layout::kPaths ? scratch_of(req).path_values : items;
  if (!bs) res.values.assign(outputs, 0.0);
  if (v.has_std_error) res.std_errors.assign(items, 0.0);
  v.run_range(req, req.portfolio, 0, items, res);
  for (std::size_t i = 0; bs && i < items; ++i) {
    const robust::BsElem e = robust::bs_elem(req.portfolio, i);
    res.values.push_back(e.call);
    res.values.push_back(e.put);
  }
  return {std::move(res.values), std::move(res.std_errors)};
}

double mean(const std::vector<double>& x) {
  double s = 0.0;
  for (double v : x) s += v;
  return x.empty() ? 0.0 : s / static_cast<double>(x.size());
}

// Deterministic agreement: the worst relative error within the variant's
// tolerance. Folds into `rep` so several passes report their worst item.
void compare_exact(const Outputs& got, const Outputs& want, double tolerance, const char* pass,
                   ValidationReport& rep) {
  if (got.values.size() != want.values.size()) {
    rep.ok = false;
    rep.detail = std::string("output size mismatch vs reference") + pass;
    return;
  }
  double worst = 0.0;
  std::size_t worst_i = 0;
  for (std::size_t i = 0; i < got.values.size(); ++i) {
    const double rel =
        std::fabs(got.values[i] - want.values[i]) / std::max(1.0, std::fabs(want.values[i]));
    if (rel > worst) {
      worst = rel;
      worst_i = i;
    }
  }
  rep.max_rel_err = std::max(rep.max_rel_err, worst);
  if (worst > tolerance) {
    rep.ok = false;
    char buf[192];
    std::snprintf(buf, sizeof buf, "item %zu: rel err %.3g > tol %.3g (got %.12g want %.12g)%s",
                  worst_i, worst, tolerance, got.values[worst_i], want.values[worst_i], pass);
    rep.detail = buf;
  }
}

}  // namespace

ValidationReport validate_variant(const std::string& id, std::size_t nopt) {
  const VariantInfo* v = Registry::instance().find(id);
  if (!v) throw std::invalid_argument("validate: unknown variant '" + id + "'");
  ValidationReport rep;
  rep.id = id;
  rep.reference_id = v->reference_id;
  rep.tolerance = v->tolerance;
  if (v->reference_id.empty()) {
    rep.ok = true;
    rep.skipped = true;  // this IS a reference anchor
    return rep;
  }
  const VariantInfo* ref = Registry::instance().find(v->reference_id);
  if (!ref) {
    rep.detail = "dangling reference_id '" + v->reference_id + "'";
    return rep;
  }

  const Outputs got = run_one(*v, *v, nopt);
  const Outputs want = run_one(*ref, *v, nopt);
  rep.items = got.values.size();
  if (got.values.empty()) {
    rep.detail = "variant produced no outputs";
    return rep;
  }

  if (v->statistical) {
    if (!got.std_errors.empty() && !want.std_errors.empty()) {
      // Different estimator, same quantity: agree within error bands.
      double worst = 0.0;
      std::size_t worst_i = 0;
      for (std::size_t i = 0; i < got.values.size(); ++i) {
        const double band = v->tolerance * std::max(1.0, std::fabs(want.values[i])) +
                            6.0 * (got.std_errors[i] + want.std_errors[i]);
        const double excess = std::fabs(got.values[i] - want.values[i]) - band;
        if (excess > worst) {
          worst = excess;
          worst_i = i;
        }
      }
      rep.mean_abs_err = std::fabs(mean(got.values) - mean(want.values));
      rep.ok = worst <= 0.0;
      if (!rep.ok) {
        char buf[160];
        std::snprintf(buf, sizeof buf, "item %zu outside 6-sigma band by %.3g", worst_i, worst);
        rep.detail = buf;
      }
      return rep;
    }
    // Own random draws, no per-item error estimate: batch means agree.
    rep.mean_abs_err = std::fabs(mean(got.values) - mean(want.values));
    rep.ok = rep.mean_abs_err <= v->tolerance;
    if (!rep.ok) rep.detail = "batch means differ beyond the tolerance band";
    return rep;
  }

  rep.ok = true;
  compare_exact(got, want, v->tolerance, "", rep);
  if (rep.ok && v->kernel == "binomial" && v->layout == Layout::kSpecs) {
    // Per-option depths take the engine's single-option lattice path,
    // which a uniform depth never reaches.
    const Outputs got_d = run_one(*v, *v, nopt, kBinomialStepsPerYear);
    const Outputs want_d = run_one(*ref, *v, nopt, kBinomialStepsPerYear);
    rep.items += got_d.values.size();
    compare_exact(got_d, want_d, v->tolerance, " (steps_per_year pass)", rep);
  }
  return rep;
}

std::vector<ValidationReport> validate_all(std::size_t nopt) {
  std::vector<ValidationReport> out;
  for (const std::string& id : Registry::instance().ids()) {
    out.push_back(validate_variant(id, nopt));
  }
  return out;
}

}  // namespace finbench::engine
