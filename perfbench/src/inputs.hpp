// perfbench/src/inputs.hpp
//
// Seeded input generation and the per-operation correctness checks. The
// same seed yields the same inputs (digest() is what the self-test
// compares); nothing here calls into the library except the analytic
// Black–Scholes reference the checks compare against.

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "finbench/arch/aligned.hpp"
#include "finbench/core/option.hpp"
#include "finbench/core/portfolio.hpp"

namespace perfbench {

namespace arch = finbench::arch;
namespace core = finbench::core;

// One shared (rate, vol) curve: the batch scalars of a Black–Scholes view.
struct Curve {
  double rate = 0.0;
  double vol = 0.0;
};
std::vector<Curve> make_curves(std::uint64_t seed, int count);

// A Black–Scholes book in the SOA layout, owned by the benchmark. tick()
// moves every spot to base * factor, a fresh factor per (option, rep),
// without drifting away from the generated book.
class BsBook {
 public:
  BsBook(std::size_t n, std::uint64_t seed, Curve curve);
  std::size_t size() const { return spot_.size(); }
  core::PortfolioView view();
  void tick(std::uint64_t rep);
  // Options whose call or put misses the analytic price beyond `tol`
  // (relative to max(1, |price|), as the registry's self-validation).
  std::size_t mismatches(double tol, std::size_t begin, std::size_t end) const;
  std::size_t mismatches(double tol) const { return mismatches(tol, 0, size()); }
  // The same check for outputs copied out of the book after tick(rep).
  std::size_t mismatches_after_tick(std::uint64_t rep, Curve curve, const double* call,
                                    const double* put, double tol) const;
  double call(std::size_t i) const { return call_[i]; }
  double put(std::size_t i) const { return put_[i]; }
  void set_curve(Curve c) { curve_ = c; }
  std::uint64_t digest(std::uint64_t h) const;

 private:
  // The factor tick(rep) applies to option i.
  double tick_factor(std::uint64_t rep, std::size_t i) const;

  arch::AlignedVector<double> spot_, strike_, years_, call_, put_, base_;
  Curve curve_;
  std::uint64_t seed_;
};

// Mixed-expiry lattice book: puts, half American, with expiries evenly
// spread over [0.1, 1.25] years (steps-per-year depths differ ~12x) and
// dealt out in a seeded order.
std::vector<core::OptionSpec> make_lattice_book(std::size_t n, std::uint64_t seed);

// One step of the FNV-1a style input digest the self-tests compare.
std::uint64_t digest_fold(std::uint64_t h, double x);

// Relative error the registry's validation uses.
bool close_enough(double got, double want, double tol);

}  // namespace perfbench
