// Sample summaries, the metric catalog and the span log of the benchmark
// driver (see bench.hpp).

#include "bench.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

SpanLog* g_spans = nullptr;

double quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

namespace {

double tail_percentile(std::size_t n) {
  for (const double p : {99.9, 99.0, 90.0, 75.0}) {
    if (static_cast<double>(n) * (1.0 - p / 100.0) >= 10.0) return p;
  }
  return 50.0;
}

}  // namespace

Summary summarize(std::vector<double> v, std::size_t min_n) {
  Summary s;
  s.n = v.size();
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  s.median = quantile(v, 0.5);
  s.tail_pct = tail_percentile(std::min(min_n, v.size()));
  s.tail = quantile(v, s.tail_pct / 100.0);
  return s;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return quantile(v, 0.5);
}

double p99(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return quantile(v, 0.99);
}

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s", "lower"},
      {"opts_per_s", "opt/s", "higher"},
      {"req_p50_us", "us", "lower"},
      {"peak_rss_mb", "MB", "lower"},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = {
      {"arch.stream_gbps", "GB/s", "higher"},
      {"robust.sanitize.ms", "ms", "lower"},
      {"robust.sanitize.gbps", "GB/s", "higher"},
      {"robust.guard.ms", "ms", "lower"},
      {"robust.guard.gbps", "GB/s", "higher"},
      {"kernels.bs.ms", "ms", "lower"},
      {"kernels.bs.roofline_frac", "ratio", "higher"},
      {"engine.price.ms", "ms", "lower"},
      {"engine.residual_ms", "ms", "lower"},
      {"kernels.bs.small_us", "us", "lower"},
      {"engine.price_small_us", "us", "lower"},
      {"engine.pool.run_us", "us", "lower"},
      {"engine.group_small_us", "us", "lower"},
      {"engine.group.ms", "ms", "lower"},
      {"engine.solo_sum.ms", "ms", "lower"},
      {"kernels.binomial.1t_opts_per_s", "opt/s", "higher"},
      {"engine.parallel_eff", "ratio", "higher"},
      {"engine.tasks.flat_speedup", "ratio", "lower"},
      {"serve.request_p50_us", "us", "lower"},
      {"serve.request_p99_us", "us", "lower"},
      {"serve.queue_wait_us", "us", "lower"},
      {"serve.batch_size.mean", "count", "higher"},
      {"serve.dispatch_rounds", "count", "lower"},
      {"serve.gen_lag_us", "us", "lower"},
      {"probe.negotiated_stale", "count", "lower"},
      {"trace.overhead_pct", "%", "lower"},
  };
  return defs;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"bs_book", "lattice_book"};
  return names;
}

std::int32_t SpanLog::open(const char* name, std::uint64_t req) {
  const auto idx = static_cast<std::int32_t>(spans_.size());
  spans_.push_back(Span{name, now_ns(), 0, current(), req});
  stack_.push_back(idx);
  return idx;
}

void SpanLog::close(std::int32_t idx) {
  spans_[static_cast<std::size_t>(idx)].end_ns = now_ns();
  if (!stack_.empty() && stack_.back() == idx) stack_.pop_back();
}

std::int32_t SpanLog::add(const char* name, std::uint64_t start_ns, std::uint64_t end_ns,
                          std::int32_t parent, std::uint64_t req) {
  spans_.push_back(Span{name, start_ns, end_ns, parent, req});
  return static_cast<std::int32_t>(spans_.size() - 1);
}

std::vector<double> SpanLog::seconds(std::string_view name, bool self) const {
  // Children of one parent never overlap on the benchmark's single client
  // thread, so summing direct children is exact. The exception is a serve
  // rung, whose reconstructed request spans overlap; its self time is
  // clamped at zero and never reported.
  std::vector<std::uint64_t> child_ns(spans_.size(), 0);
  if (self) {
    for (const Span& s : spans_) {
      if (s.parent >= 0) child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::vector<double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (name != spans_[i].name) continue;
    const std::uint64_t dur = spans_[i].end_ns - spans_[i].start_ns;
    out.push_back(1e-9 * static_cast<double>(dur - std::min(dur, child_ns[i])));
  }
  return out;
}

bool SpanLog::write_tsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "id\tname\tstart_ns\tend_ns\tparent\treq\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%zu\t%s\t%llu\t%llu\t%d\t%llu\n", i, s.name,
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns), s.parent,
                 static_cast<unsigned long long>(s.req));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
