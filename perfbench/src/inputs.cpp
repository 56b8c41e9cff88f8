// Seeded inputs and correctness checks of the benchmark driver.

#include "inputs.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "bench.hpp"
#include "finbench/core/analytic.hpp"

namespace perfbench {

std::vector<Curve> make_curves(std::uint64_t seed, int count) {
  Rng rng(mix64(seed, 0xc0ffee));
  std::vector<Curve> out(static_cast<std::size_t>(count));
  for (Curve& c : out) {
    c.rate = rng.uniform(0.01, 0.06);
    c.vol = rng.uniform(0.12, 0.45);
  }
  return out;
}

BsBook::BsBook(std::size_t n, std::uint64_t seed, Curve curve)
    : spot_(n), strike_(n), years_(n), call_(n, 0.0), put_(n, 0.0), base_(n), curve_(curve),
      seed_(seed) {
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    base_[i] = rng.uniform(50.0, 150.0);
    strike_[i] = base_[i] * rng.uniform(0.7, 1.3);
    years_[i] = rng.uniform(0.05, 3.0);
    spot_[i] = base_[i];
  }
}

core::PortfolioView BsBook::view() {
  core::PortfolioView v;
  v.layout = core::Layout::kBsSoa;
  v.soa.spot = {spot_.data(), spot_.size()};
  v.soa.strike = {strike_.data(), strike_.size()};
  v.soa.years = {years_.data(), years_.size()};
  v.soa.call = {call_.data(), call_.size()};
  v.soa.put = {put_.data(), put_.size()};
  v.soa.rate = curve_.rate;
  v.soa.vol = curve_.vol;
  v.soa.dividend = 0.0;
  return v;
}

double BsBook::tick_factor(std::uint64_t rep, std::size_t i) const {
  return hashed_uniform(mix64(seed_ ^ mix64(rep), i), 0.95, 1.05);
}

void BsBook::tick(std::uint64_t rep) {
  for (std::size_t i = 0; i < size(); ++i) spot_[i] = base_[i] * tick_factor(rep, i);
}

bool close_enough(double got, double want, double tol) {
  return std::isfinite(got) && std::fabs(got - want) <= tol * std::max(1.0, std::fabs(want));
}

std::size_t BsBook::mismatches(double tol, std::size_t begin, std::size_t end) const {
  // Large books are checked on all cores between reps: the check is off the
  // clock, and a serial one would leave little of a run for timed reps.
  std::size_t bad = 0;
#pragma omp parallel for reduction(+ : bad) schedule(static) if (end - begin >= 65536)
  for (std::size_t i = begin; i < end; ++i) {
    const core::BsPrice p =
        core::black_scholes(spot_[i], strike_[i], years_[i], curve_.rate, curve_.vol, 0.0);
    if (!close_enough(call_[i], p.call, tol) || !close_enough(put_[i], p.put, tol)) ++bad;
  }
  return bad;
}

std::size_t BsBook::mismatches_after_tick(std::uint64_t rep, Curve curve, const double* call,
                                         const double* put, double tol) const {
  std::size_t bad = 0;
  for (std::size_t i = 0; i < size(); ++i) {
    const double spot = base_[i] * tick_factor(rep, i);
    const core::BsPrice p =
        core::black_scholes(spot, strike_[i], years_[i], curve.rate, curve.vol, 0.0);
    if (!close_enough(call[i], p.call, tol) || !close_enough(put[i], p.put, tol)) ++bad;
  }
  return bad;
}

std::uint64_t digest_fold(std::uint64_t h, double x) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &x, sizeof bits);
  return (h ^ bits) * 0x100000001b3ull;
}

std::uint64_t BsBook::digest(std::uint64_t h) const {
  for (std::size_t i = 0; i < size(); ++i) {
    h = digest_fold(digest_fold(digest_fold(h, spot_[i]), strike_[i]), years_[i]);
  }
  return digest_fold(digest_fold(h, curve_.rate), curve_.vol);
}

std::vector<core::OptionSpec> make_lattice_book(std::size_t n, std::uint64_t seed) {
  // A fixed profile of expiries (evenly spaced) and styles (alternating),
  // dealt out in a seeded order: every seed prices the same lattice depths,
  // so the book's cost does not change with the seed; prices and order do.
  Rng rng(mix64(seed, 0x1a771ce));
  std::vector<std::size_t> slot(n);
  for (std::size_t i = 0; i < n; ++i) slot[i] = i;
  for (std::size_t i = n; i > 1; --i) std::swap(slot[i - 1], slot[rng.next() % i]);
  std::vector<core::OptionSpec> book(n);
  for (std::size_t i = 0; i < n; ++i) {
    core::OptionSpec& o = book[i];
    o.spot = rng.uniform(80.0, 120.0);
    o.strike = rng.uniform(80.0, 120.0);
    o.years = 0.1 + 1.15 * (static_cast<double>(slot[i]) + 0.5) / static_cast<double>(n);
    o.rate = rng.uniform(0.01, 0.05);
    o.vol = rng.uniform(0.15, 0.40);
    o.type = core::OptionType::kPut;
    o.style = slot[i] % 2 ? core::ExerciseStyle::kAmerican : core::ExerciseStyle::kEuropean;
    o.dividend = 0.0;
  }
  return book;
}

}  // namespace perfbench
