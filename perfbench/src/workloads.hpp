// perfbench/src/workloads.hpp
//
// The caller-path workloads, the per-layer suite of the traced run, and the
// negotiated-layout probe. Sizes and rates are fixed here; none of them is
// calibrated on the host.

#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "bench.hpp"
#include "finbench/engine/request.hpp"

namespace perfbench {

inline constexpr const char* kBsKernel = "bs.intermediate.auto";  // SOA-native
inline constexpr const char* kLatticeKernel = "binomial.advanced.auto";
inline constexpr const char* kLatticeReference = "binomial.reference.scalar";

inline constexpr std::size_t kBookSize = std::size_t{1} << 20;  // bs_book options
inline constexpr std::size_t kLatticeSize = 256;                // lattice_book options
inline constexpr int kStepsPerYear = 1024;
inline constexpr std::size_t kLatticeSample = 8;  // options checked per lattice rep
inline constexpr std::size_t kSmallSize = 32;     // options per small serve request
inline constexpr int kCurves = 4;                 // shared (rate, vol) curves
inline constexpr double kSmallRate = 80e3;        // small-request arrivals/s (layer suite)
inline constexpr std::size_t kBurstMembers = 64;  // burst group of the layer suite
inline constexpr std::size_t kBurstSize = 16384;  // options per burst member

// One workload run: set-up repeats, then the measured loop for `seconds`.
Outcome run_workload(const std::string& name, std::uint64_t seed, double seconds,
                     int setup_repeats);

// Every per-layer metric, timed through outside-in spans (g_spans must be
// set). The suite is the same whichever workload the traced run names.
void run_layer_suite(std::uint64_t seed, Outcome& out);

// Reprices a reused AOS request through the SOA kernel after its spots
// moved in place and counts the options whose prices stayed stale.
struct ProbeResult {
  std::size_t options = 0;
  std::size_t stale = 0;
  double got0 = 0.0;   // option 0 call from the reused request
  double want0 = 0.0;  // option 0 call from a fresh request
  bool fresh_correct = false;
};
ProbeResult negotiated_layout_probe(std::uint64_t seed);

// Helpers shared with the layer suite.
double tolerance_of(const char* id);  // the variant's registry tolerance
double seconds_since(std::uint64_t t0_ns);
finbench::engine::PricingRequest lattice_request(std::span<const finbench::core::OptionSpec> book,
                                                 const char* id);
std::vector<std::size_t> lattice_sample(std::uint64_t seed);
std::vector<double> lattice_reference(std::span<const finbench::core::OptionSpec> book,
                                      const std::vector<std::size_t>& idx);
std::size_t lattice_mismatches(const std::vector<double>& values,
                               const std::vector<std::size_t>& idx,
                               const std::vector<double>& want, double tol);

// Digest of everything `workload` generates from `seed`.
std::string inputs_digest(const std::string& workload, std::uint64_t seed);

}  // namespace perfbench
