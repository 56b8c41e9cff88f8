// perfbench_driver — the repository benchmark's measuring process.
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1 [--spans PATH]
//   perfbench_driver --list
//   perfbench_driver --digest --workload NAME --seed N
//
// Prints one JSON object on stdout: the metrics of the run (end-to-end with
// --trace 0, per-layer with --trace 1), with units and sample counts, the
// operations attempted and failed, thread counts and the negotiated-layout
// probe. perfbench/run.py builds this binary and turns that object into the
// benchmark's result line.

#include <omp.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "bench.hpp"
#include "finbench/engine/engine.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

std::string json_str(const std::string& s) {
  std::string o = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') o += '\\';
    o += c;
  }
  return o + "\"";
}

std::string json_num(double x) {
  if (!std::isfinite(x)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", x);
  return buf;
}

std::string catalog_json(const std::vector<MetricDef>& defs) {
  std::string o = "[";
  for (std::size_t i = 0; i < defs.size(); ++i) {
    if (i) o += ",";
    o += "{\"name\":" + json_str(defs[i].name) + ",\"unit\":" + json_str(defs[i].unit) +
         ",\"better\":" + json_str(defs[i].better) + "}";
  }
  return o + "]";
}

void print_list() {
  std::string o = "{\"workloads\":[";
  for (std::size_t i = 0; i < workload_names().size(); ++i) {
    if (i) o += ",";
    o += json_str(workload_names()[i]);
  }
  o += "],\"end_to_end\":" + catalog_json(end_to_end_metrics()) +
       ",\"per_layer\":" + catalog_json(per_layer_metrics()) + "}";
  std::printf("%s\n", o.c_str());
}

const char* unit_of(const std::string& name) {
  for (const auto* defs : {&end_to_end_metrics(), &per_layer_metrics()}) {
    for (const MetricDef& d : *defs) {
      if (name == d.name) return d.unit;
    }
  }
  return "?";
}

constexpr int kSetupRepeats = 5;

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload NAME --seed N --seconds S --trace 0|1 "
               "[--spans PATH] | --list | --digest --workload NAME --seed N\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::string spans_path;
  bool list = false, digest = false;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    const bool has_value = i + 1 < argc;
    if (!std::strcmp(a, "--list")) {
      list = true;
    } else if (!std::strcmp(a, "--digest")) {
      digest = true;
    } else if (!std::strcmp(a, "--workload") && has_value) {
      opt.workload = argv[++i];
    } else if (!std::strcmp(a, "--seed") && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (!std::strcmp(a, "--seconds") && has_value) {
      opt.seconds = std::atof(argv[++i]);
    } else if (!std::strcmp(a, "--trace") && has_value) {
      opt.trace = std::atoi(argv[++i]) != 0;
    } else if (!std::strcmp(a, "--spans") && has_value) {
      spans_path = argv[++i];
    } else {
      return usage();
    }
  }
  if (list) {
    print_list();
    return 0;
  }
  bool known = false;
  for (const std::string& w : workload_names()) known = known || w == opt.workload;
  if (!known || !(opt.seconds > 0.0)) return usage();

  try {
    if (digest) {
      std::printf("%s\n", inputs_digest(opt.workload, opt.seed).c_str());
      return 0;
    }
    Outcome out;
    if (!opt.trace) {
      out = run_workload(opt.workload, opt.seed, opt.seconds, kSetupRepeats);
      out.put("peak_rss_mb", peak_rss_mb(), 1, "max");
    } else {
      // The workload's loop untraced, then traced, for the tracing overhead;
      // then every layer through spans.
      const double part = opt.seconds / 4.0;
      const Outcome plain = run_workload(opt.workload, opt.seed, part, 1);
      SpanLog log;
      g_spans = &log;
      const Outcome traced = run_workload(opt.workload, opt.seed, part, 1);
      out.count(plain.attempted + traced.attempted, plain.failed + traced.failed);
      run_layer_suite(opt.seed, out);
      g_spans = nullptr;
      const double base = plain.metrics.at("req_p50_us").value;
      out.put("trace.overhead_pct",
              100.0 * (traced.metrics.at("req_p50_us").value / base - 1.0),
              traced.metrics.at("req_p50_us").n, "req_p50_us traced vs untraced");
      if (!spans_path.empty() && !log.write_tsv(spans_path)) {
        std::fprintf(stderr, "perfbench: could not write %s\n", spans_path.c_str());
      }
    }

    const ProbeResult probe = negotiated_layout_probe(opt.seed);
    out.count(1, probe.fresh_correct ? 0 : 1);
    if (opt.trace) {
      out.put("probe.negotiated_stale", static_cast<double>(probe.stale), probe.options, "count");
    }

    std::string o = "{\"workload\":" + json_str(opt.workload) +
                    ",\"seed\":" + std::to_string(opt.seed) +
                    ",\"trace\":" + (opt.trace ? "1" : "0") +
                    ",\"seconds\":" + json_num(opt.seconds) +
                    ",\"nproc\":" + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
                    ",\"threads\":{\"engine_pool\":" +
                    std::to_string(finbench::engine::Engine::shared().pool_size()) +
                    ",\"omp_max\":" + std::to_string(omp_get_max_threads()) +
                    ",\"client\":1,\"serve_dispatcher\":" + (opt.trace ? "1" : "0") + "}" +
                    ",\"attempted\":" + std::to_string(out.attempted) +
                    ",\"failed\":" + std::to_string(out.failed) + ",\"metrics\":{";
    bool first = true;
    for (const auto& [name, m] : out.metrics) {
      if (!first) o += ",";
      first = false;
      o += json_str(name) + ":{\"value\":" + json_num(m.value) + ",\"unit\":" +
           json_str(unit_of(name)) + ",\"n\":" + std::to_string(m.n) +
           ",\"stat\":" + json_str(m.stat) + "}";
    }
    o += "},\"notes\":[";
    for (std::size_t i = 0; i < out.notes.size(); ++i) {
      if (i) o += ",";
      o += json_str(out.notes[i]);
    }
    o += "],\"probe\":{\"name\":\"negotiated_layout_reprice\",\"options\":" +
         std::to_string(probe.options) + ",\"stale\":" + std::to_string(probe.stale) +
         ",\"option0_reused\":" + json_num(probe.got0) +
         ",\"option0_fresh\":" + json_num(probe.want0) + "}}";
    std::printf("%s\n", o.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
