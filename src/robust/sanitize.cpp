// Workload sanitizer implementation. One forward scan per workload; the
// clean path (every option inside the envelope) touches no memory beyond
// the inputs and allocates nothing — the mask materializes only when the
// first fault appears, and SanitizeReport::reset() keeps its capacity so
// steady-state re-scans of a faulty workload are allocation-free too.

#include "finbench/robust/sanitize.hpp"

#include <algorithm>
#include <cmath>

#include "finbench/obs/metrics.hpp"
#include "scan.hpp"

namespace finbench::robust {

namespace {

// Benign placeholder a skipped option prices as: well inside every
// envelope, cheap for every kernel (1y ATM European call). Its outputs
// are forced to quiet NaN after the run, so the placeholder price never
// escapes.
const core::OptionSpec kPlaceholder{};

void count_scan(const SanitizeReport& r) {
  static obs::Counter& scanned = obs::counter("robust.sanitize.scanned");
  static obs::Counter& faulty = obs::counter("robust.sanitize.faulty");
  static obs::Counter& clamped = obs::counter("robust.sanitize.clamped");
  static obs::Counter& skipped = obs::counter("robust.sanitize.skipped");
  scanned.add(r.scanned);
  faulty.add(r.faulty);
  clamped.add(r.clamped);
  skipped.add(r.skipped);
}

// Fault bits of one positive-domain field (spot/strike/vol/years).
std::uint8_t classify_positive(double x, double ceiling, double floor) {
  if (!std::isfinite(x)) return kFaultNonFinite;
  if (x <= 0.0) return kFaultDomain;
  if (x < floor || x > ceiling) return kFaultMagnitude;
  return kFaultNone;
}

std::uint8_t classify_rate(double x, double max_abs) {
  if (!std::isfinite(x)) return kFaultNonFinite;
  if (std::abs(x) > max_abs) return kFaultDomain;
  return kFaultNone;
}

double clamp_positive(double x, double ceiling, double floor) {
  return std::clamp(x, floor, ceiling);
}

// Repair a finite-but-out-of-domain spec into the envelope. Only called
// when the spec has no non-finite field.
core::OptionSpec clamp_spec(const core::OptionSpec& o, const SanitizeEnvelope& env) {
  core::OptionSpec r = o;
  r.spot = clamp_positive(o.spot, env.max_magnitude, env.min_positive);
  r.strike = clamp_positive(o.strike, env.max_magnitude, env.min_positive);
  r.years = clamp_positive(o.years, env.max_years, env.min_positive);
  r.vol = clamp_positive(o.vol, env.max_vol, env.min_positive);
  r.rate = std::clamp(o.rate, -env.max_abs_rate, env.max_abs_rate);
  r.dividend = std::clamp(o.dividend, -env.max_abs_rate, env.max_abs_rate);
  return r;
}

// Lazily materialize the mask (zeroed, one byte per option). assign()
// reuses capacity across reset() cycles.
std::uint8_t* mask_for(SanitizeReport& out, std::size_t n) {
  if (out.mask.empty()) out.mask.assign(n, 0);
  return out.mask.data();
}

// --- Black–Scholes batch layouts --------------------------------------------
//
// Per-option fields are spot/strike/years; rate/vol (and dividend) are
// shared by the whole batch. A generic field accessor keeps the four
// layouts in one scan loop.

struct BsFields {
  double spot, strike, years;
};

template <class View>
struct BsAccess;

template <>
struct BsAccess<core::BsAosView> {
  static BsFields load(const core::BsAosView& v, std::size_t i) {
    const auto& o = v.options[i];
    return {o.spot, o.strike, o.years};
  }
  static void store(const core::BsAosView& v, std::size_t i, const BsFields& f) {
    auto& o = v.options[i];
    o.spot = f.spot;
    o.strike = f.strike;
    o.years = f.years;
  }
};

template <>
struct BsAccess<core::BsSoaView> {
  static BsFields load(const core::BsSoaView& v, std::size_t i) {
    return {v.spot[i], v.strike[i], v.years[i]};
  }
  static void store(const core::BsSoaView& v, std::size_t i, const BsFields& f) {
    v.spot[i] = f.spot;
    v.strike[i] = f.strike;
    v.years[i] = f.years;
  }
};

template <>
struct BsAccess<core::BsSoaFView> {
  static BsFields load(const core::BsSoaFView& v, std::size_t i) {
    return {v.spot[i], v.strike[i], v.years[i]};
  }
  static void store(const core::BsSoaFView& v, std::size_t i, const BsFields& f) {
    v.spot[i] = static_cast<float>(f.spot);
    v.strike[i] = static_cast<float>(f.strike);
    v.years[i] = static_cast<float>(f.years);
  }
};

template <>
struct BsAccess<core::BsBlockedView> {
  static BsFields load(const core::BsBlockedView& v, std::size_t i) {
    const std::size_t b = static_cast<std::size_t>(v.block);
    const std::size_t blk = i / b, lane = i % b;
    return {v.field(blk, 0)[lane], v.field(blk, 1)[lane], v.field(blk, 2)[lane]};
  }
  static void store(const core::BsBlockedView& v, std::size_t i, const BsFields& f) {
    const std::size_t b = static_cast<std::size_t>(v.block);
    const std::size_t blk = i / b, lane = i % b;
    v.field(blk, 0)[lane] = f.spot;
    v.field(blk, 1)[lane] = f.strike;
    v.field(blk, 2)[lane] = f.years;
  }
};

// The float layout's floor: below ~1e-38 a float is denormal; classify
// against the wider of the envelope floor and the float normal minimum.
template <class View>
constexpr double field_floor(const SanitizeEnvelope& env) {
  if constexpr (std::is_same_v<View, core::BsSoaFView>) {
    return std::max(env.min_positive, 1.2e-38);
  } else {
    return env.min_positive;
  }
}

// Branch-free envelope check of options [b, e): true exactly when
// classify_positive passes spot, strike and years of every option (the
// bounds exclude NaN, infinities, zero, negatives and denormals at once).
template <class View>
bool range_clean(const View& v, std::size_t b, std::size_t e, double floor,
                 const SanitizeEnvelope& env) {
  if constexpr (std::is_same_v<View, core::BsSoaView>) {
    const std::size_t n = e - b;
    return scan::all_within(v.spot.data() + b, n, floor, env.max_magnitude) &
           scan::all_within(v.strike.data() + b, n, floor, env.max_magnitude) &
           scan::all_within(v.years.data() + b, n, floor, env.max_years);
  } else if constexpr (std::is_same_v<View, core::BsSoaFView>) {
    const std::size_t n = e - b;
    const float lo = scan::float_floor(floor);
    const float mag = scan::float_ceil(env.max_magnitude);
    return scan::all_within(v.spot.data() + b, n, lo, mag) &
           scan::all_within(v.strike.data() + b, n, lo, mag) &
           scan::all_within(v.years.data() + b, n, lo, scan::float_ceil(env.max_years));
  } else if constexpr (std::is_same_v<View, core::BsBlockedView>) {
    // Per lane-block, each field is a contiguous run of lanes; a range
    // edge inside a block clips the runs to its own lanes.
    const std::size_t bw = static_cast<std::size_t>(v.block);
    bool ok = true;
    for (std::size_t i = b; i < e;) {
      const std::size_t ln = i % bw, n = std::min(bw - ln, e - i);
      const double* spot = v.field(i / bw, 0) + ln;
      ok &= scan::all_within(spot, n, floor, env.max_magnitude) &
            scan::all_within(spot + bw, n, floor, env.max_magnitude) &
            scan::all_within(spot + 2 * bw, n, floor, env.max_years);
      i += n;
    }
    return ok;
  } else {
    bool ok = true;
    for (std::size_t i = b; i < e; ++i) {
      const BsFields f = BsAccess<View>::load(v, i);
      ok &= (f.spot >= floor) & (f.spot <= env.max_magnitude) & (f.strike >= floor) &
            (f.strike <= env.max_magnitude) & (f.years >= floor) & (f.years <= env.max_years);
    }
    return ok;
  }
}

std::uint8_t classify_shared(double rate, double vol, double dividend,
                             const SanitizeEnvelope& env) {
  return classify_rate(rate, env.max_abs_rate) |
         classify_positive(vol, env.max_vol, env.min_positive) |
         classify_rate(dividend, env.max_abs_rate);
}

template <class View>
void sanitize_bs(View& v, double& rate, double& vol, double* dividend, SanitizePolicy policy,
                 SanitizeReport& out, const SanitizeEnvelope& env) {
  const std::size_t n = v.size();
  out.scanned = n;

  // Shared batch parameters first: a faulty rate/vol poisons every option.
  const std::uint8_t shared =
      classify_shared(rate, vol, dividend != nullptr ? *dividend : 0.0, env);
  const bool shared_nonfinite = (shared & kFaultNonFinite) != 0;
  const bool repair = policy == SanitizePolicy::kClamp || policy == SanitizePolicy::kSkip;
  if (shared != kFaultNone && repair) {
    // Finite shared params clamp into the envelope; non-finite ones take
    // placeholder values so the kernel runs safely — but a fabricated vol
    // prices nothing honestly, so in that case every option is also
    // skipped (outputs forced to NaN after the run).
    if (std::isfinite(rate)) {
      rate = std::clamp(rate, -env.max_abs_rate, env.max_abs_rate);
    } else {
      rate = kPlaceholder.rate;
    }
    if (std::isfinite(vol) && vol > 0.0) {
      vol = clamp_positive(vol, env.max_vol, env.min_positive);
    } else {
      vol = kPlaceholder.vol;
    }
    if (dividend != nullptr) {
      *dividend = std::isfinite(*dividend)
                      ? std::clamp(*dividend, -env.max_abs_rate, env.max_abs_rate)
                      : 0.0;
    }
  }

  // Two speeds: a block whose options all pass the branch-free envelope
  // check is skipped; only a dirty block takes the per-element path below,
  // which classifies, repairs and records exactly as a full scan would.
  const double floor = field_floor<View>(env);
  for (std::size_t b = 0; b < n; b += scan::kBlock) {
    const std::size_t e = std::min(n, b + scan::kBlock);
    if (shared == kFaultNone && range_clean(v, b, e, floor, env)) continue;
    for (std::size_t i = b; i < e; ++i) {
      BsFields f = BsAccess<View>::load(v, i);
      std::uint8_t bits = shared;
      bits |= classify_positive(f.spot, env.max_magnitude, floor);
      bits |= classify_positive(f.strike, env.max_magnitude, floor);
      bits |= classify_positive(f.years, env.max_years, floor);
      if (bits == kFaultNone) continue;

      ++out.faulty;
      std::uint8_t* mask = mask_for(out, n);
      const bool nonfinite = ((bits & kFaultNonFinite) != 0) || shared_nonfinite;
      if (policy == SanitizePolicy::kClamp && !nonfinite) {
        f.spot = clamp_positive(f.spot, env.max_magnitude, floor);
        f.strike = clamp_positive(f.strike, env.max_magnitude, floor);
        f.years = clamp_positive(f.years, env.max_years, floor);
        BsAccess<View>::store(v, i, f);
        bits |= kFaultClamped;
        ++out.clamped;
      } else if (repair) {
        BsAccess<View>::store(v, i, {kPlaceholder.spot, kPlaceholder.strike, kPlaceholder.years});
        bits |= kFaultSkipped;
        ++out.skipped;
      }
      mask[i] = bits;
    }
  }
}

}  // namespace

std::uint8_t classify(const core::OptionSpec& o, const SanitizeEnvelope& env) {
  std::uint8_t bits = kFaultNone;
  bits |= classify_positive(o.spot, env.max_magnitude, env.min_positive);
  bits |= classify_positive(o.strike, env.max_magnitude, env.min_positive);
  bits |= classify_positive(o.years, env.max_years, env.min_positive);
  bits |= classify_positive(o.vol, env.max_vol, env.min_positive);
  bits |= classify_rate(o.rate, env.max_abs_rate);
  bits |= classify_rate(o.dividend, env.max_abs_rate);
  return bits;
}

void sanitize(core::PortfolioView& view, SanitizePolicy policy, SanitizeReport& out,
              const SanitizeEnvelope& env) {
  out.reset();
  if (policy == SanitizePolicy::kOff) return;

  switch (view.layout) {
    case core::Layout::kSpecs: {
      // Scan only: the view's specs are immutable; the engine prices a
      // sanitized arena copy (sanitize_specs) when this scan finds faults.
      const std::size_t n = view.specs.size();
      out.scanned = n;
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint8_t bits = classify(view.specs[i], env);
        if (bits == kFaultNone) continue;
        ++out.faulty;
        mask_for(out, n)[i] = bits;
      }
      break;
    }
    case core::Layout::kBsAos:
      sanitize_bs(view.aos, view.aos.rate, view.aos.vol, &view.aos.dividend, policy, out, env);
      break;
    case core::Layout::kBsSoa:
      sanitize_bs(view.soa, view.soa.rate, view.soa.vol, &view.soa.dividend, policy, out, env);
      break;
    case core::Layout::kBsSoaF: {
      double rate = view.sp.rate, vol = view.sp.vol;
      sanitize_bs(view.sp, rate, vol, nullptr, policy, out, env);
      view.sp.rate = static_cast<float>(rate);
      view.sp.vol = static_cast<float>(vol);
      break;
    }
    case core::Layout::kBsBlocked:
      sanitize_bs(view.blocked, view.blocked.rate, view.blocked.vol, &view.blocked.dividend,
                  policy, out, env);
      break;
    case core::Layout::kPaths:
      // A path count carries no per-item data to sanitize.
      break;
  }
  count_scan(out);
}

bool bs_shared_clean(const core::PortfolioView& view, const SanitizeEnvelope& env) {
  switch (view.layout) {
    case core::Layout::kBsAos:
      return classify_shared(view.aos.rate, view.aos.vol, view.aos.dividend, env) == kFaultNone;
    case core::Layout::kBsSoa:
      return classify_shared(view.soa.rate, view.soa.vol, view.soa.dividend, env) == kFaultNone;
    case core::Layout::kBsSoaF:
      return classify_shared(view.sp.rate, view.sp.vol, 0.0, env) == kFaultNone;
    case core::Layout::kBsBlocked:
      return classify_shared(view.blocked.rate, view.blocked.vol, view.blocked.dividend, env) ==
             kFaultNone;
    default:
      return false;
  }
}

bool bs_inputs_clean(const core::PortfolioView& view, std::size_t begin, std::size_t end,
                     const SanitizeEnvelope& env) {
  switch (view.layout) {
    case core::Layout::kBsAos:
      return range_clean(view.aos, begin, end, field_floor<core::BsAosView>(env), env);
    case core::Layout::kBsSoa:
      return range_clean(view.soa, begin, end, field_floor<core::BsSoaView>(env), env);
    case core::Layout::kBsSoaF:
      return range_clean(view.sp, begin, end, field_floor<core::BsSoaFView>(env), env);
    case core::Layout::kBsBlocked:
      return range_clean(view.blocked, begin, end, field_floor<core::BsBlockedView>(env), env);
    default:
      return false;
  }
}

void sanitize_specs(std::span<const core::OptionSpec> src, std::span<core::OptionSpec> dst,
                    SanitizePolicy policy, SanitizeReport& out, const SanitizeEnvelope& env) {
  out.reset();
  const std::size_t n = src.size();
  out.scanned = n;
  for (std::size_t i = 0; i < n; ++i) {
    std::uint8_t bits = classify(src[i], env);
    if (bits == kFaultNone || policy == SanitizePolicy::kOff ||
        policy == SanitizePolicy::kReject) {
      dst[i] = src[i];
      if (bits != kFaultNone) {
        ++out.faulty;
        mask_for(out, n)[i] = bits;
      }
      continue;
    }
    ++out.faulty;
    if (policy == SanitizePolicy::kClamp && (bits & kFaultNonFinite) == 0) {
      dst[i] = clamp_spec(src[i], env);
      bits |= kFaultClamped;
      ++out.clamped;
    } else {
      // kSkip, or a non-finite field under kClamp (nothing to clamp to):
      // price a benign placeholder, NaN the output afterwards.
      dst[i] = kPlaceholder;
      dst[i].type = src[i].type;  // keep the mask/result shape honest
      bits |= kFaultSkipped;
      ++out.skipped;
    }
    mask_for(out, n)[i] = bits;
  }
  // The engine always runs the sanitize() scan first (which counted
  // scanned/faulty); this pass only adds the repairs it performed.
  static obs::Counter& clamped = obs::counter("robust.sanitize.clamped");
  static obs::Counter& skipped = obs::counter("robust.sanitize.skipped");
  clamped.add(out.clamped);
  skipped.add(out.skipped);
}

}  // namespace finbench::robust
