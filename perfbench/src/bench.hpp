// perfbench/src/bench.hpp
//
// Shared vocabulary of the repository benchmark driver: clocks, the
// benchmark's own input RNG, sample summaries, the metric catalog every
// run prints, and the outside-in span log of the traced run.
//
// The benchmark generates every input itself from --seed with its own
// generator (below), so a change to the library's workload helpers can
// never change what the benchmark measures: the program only ever sees
// the generated arrays.

#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

// splitmix64: the benchmark's input generator and per-request hash.
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}
inline std::uint64_t mix64(std::uint64_t a, std::uint64_t b) { return mix64(a ^ mix64(b)); }

struct Rng {
  std::uint64_t state;
  explicit Rng(std::uint64_t seed) : state(mix64(seed)) {}
  std::uint64_t next() { return state = mix64(state); }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }
};
// Uniform in [lo, hi) from one hash value, for inputs derived per request.
inline double hashed_uniform(std::uint64_t h, double lo, double hi) {
  return lo + (hi - lo) * static_cast<double>(h >> 11) * 0x1.0p-53;
}

// Median plus the highest of {p99.9, p99, p90, p75, p50} that has at
// least ten samples beyond it, with the sample count.
struct Summary {
  double median = 0.0;
  double tail = 0.0;
  double tail_pct = 50.0;
  std::size_t n = 0;
};
double quantile(const std::vector<double>& sorted, double q);  // linear interpolation
// `min_n` is the sample count the loop guarantees; the tail percentile is
// chosen from it, so runs that happen to collect more samples still report
// the same percentile.
Summary summarize(std::vector<double> v, std::size_t min_n);
double median(std::vector<double> v);
double p99(std::vector<double> v);

// --- Metric catalog -----------------------------------------------------------
// Every name the driver can print. BENCHMARK.json lists the same names; the
// self-tests hold the two in agreement.
struct MetricDef {
  const char* name;
  const char* unit;
  const char* better;  // "higher" | "lower"
};
const std::vector<MetricDef>& end_to_end_metrics();
const std::vector<MetricDef>& per_layer_metrics();
const std::vector<std::string>& workload_names();

// One printed metric: its value and how it was taken.
struct Metric {
  double value = 0.0;
  std::size_t n = 0;  // samples behind the value
  std::string stat;   // "median", "p90", "max", ...
};

struct Outcome {
  std::map<std::string, Metric> metrics;
  std::uint64_t attempted = 0;  // operations priced and checked
  std::uint64_t failed = 0;     // wrong, failed, shed or expired operations
  std::vector<std::string> notes;

  void put(const std::string& name, double value, std::size_t n, std::string stat) {
    metrics[name] = Metric{value, n, std::move(stat)};
  }
  void count(std::uint64_t ops, std::uint64_t bad) {
    attempted += ops;
    failed += bad;
  }
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

// --- Outside-in spans ---------------------------------------------------------
// Recorded by the benchmark around its calls into the library (never from
// inside it): name, start, end, the enclosing span and a request id. Kept in
// memory; written as TSV when the traced run ends. A span's self time is its
// duration minus the part covered by its direct children.
struct Span {
  const char* name;
  std::uint64_t start_ns;
  std::uint64_t end_ns;
  std::int32_t parent;  // -1 = root
  std::uint64_t req;
};

class SpanLog {
 public:
  std::int32_t open(const char* name, std::uint64_t req);
  void close(std::int32_t idx);
  // A span whose interval the benchmark reconstructs from timestamps the
  // library hands back (a serve job's queue and service phases).
  std::int32_t add(const char* name, std::uint64_t start_ns, std::uint64_t end_ns,
                   std::int32_t parent, std::uint64_t req);
  void reserve(std::size_t n) { spans_.reserve(n); }
  std::int32_t current() const { return stack_.empty() ? -1 : stack_.back(); }

  // Durations of every span called `name`, whole or self time.
  std::vector<double> seconds(std::string_view name, bool self) const;
  std::size_t size() const { return spans_.size(); }
  bool write_tsv(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
};

// The active log: null in untraced runs, so every SpanScope is one branch.
extern SpanLog* g_spans;

class SpanScope {
 public:
  explicit SpanScope(const char* name, std::uint64_t req = 0)
      : idx_(g_spans != nullptr ? g_spans->open(name, req) : -1) {}
  ~SpanScope() {
    if (idx_ >= 0) g_spans->close(idx_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  std::int32_t idx_;
};

}  // namespace perfbench
