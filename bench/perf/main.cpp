// perfbench: the repository benchmark.  Runs one workload for a fixed time,
// checks every output, and prints
//   * on stderr, a table of every metric with its unit;
//   * on stdout, one JSON record with the run's provenance, then, as the
//     last line, {"correct", "attempted", "failed", "metrics"}.
// Without --trace the metrics are the end-to-end ones; with --trace 1 they
// are the per-layer ones and the spans go to a Chrome trace-event file.
// The metric names here are the ones BENCHMARK.json declares (the smoke
// test checks that they match).
//
//   perfbench --workload NAME --seconds S [--seed N] [--trace 0|1]
//             [--trace-file FILE] [--items N] [--workdir DIR] [--commit SHA]
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "workloads.h"

namespace perf {
namespace {

struct Workload {
  const char* name;
  Measured (*run)(const Options&, Tracer&);
};
constexpr Workload kWorkloads[] = {{"tech_point", run_tech_point},
                                   {"mc_sweep", run_mc_sweep},
                                   {"array_tran", run_array_tran},
                                   {"lint_decks", run_lint_decks}};

struct Metric {
  const char* name;
  const char* unit;
  double value = 0.0;
};

// Every workload reports every per-layer metric; a layer a workload never
// calls reads 0.  Names ending in _ms are the median per-item total of the
// span of the same name without the suffix.
constexpr Metric kPerLayer[] = {
    {"sram.testbench_ms", "ms"},      {"lint.gate_ms", "ms"},
    {"spice.tran_ms", "ms"},          {"spice.dc_ms", "ms"},
    {"core.model_ms", "ms"},          {"spice.tran_steps", "count"},
    {"spice.tran_rejected", "count"}, {"spice.newton_iters", "count"},
    {"spice.device_events", "count"}, {"spice.recoveries", "count"},
    {"spice.step_accept_ratio", "ratio"},
    {"sram.cache_hit_ratio", "ratio"},
    {"sram.hold_snm_ms", "ms"},       {"sram.read_snm_ms", "ms"},
    {"sram.store_margin_ms", "ms"},   {"runner.parallel_eff", "ratio"},
    {"runner.speedup_vs_serial", "ratio"},
    {"sram.array_build_ms", "ms"},    {"spice.tran_samples", "count"},
    {"spice.structure_ms", "ms"},     {"linalg.matching_ms", "ms"},
    {"linalg.min_degree_ms", "ms"},   {"spice.parse_ms", "ms"},
    {"lint.structural_ms", "ms"},     {"lint.nonstructural_ms", "ms"},
    {"lint.format_ms", "ms"},         {"lint.hier_ms", "ms"},
    {"lint.findings", "count"},       {"trace.coverage", "ratio"},
    {"trace.overhead_frac", "ratio"}};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why << "\n"
            << "usage: perfbench --workload NAME --seconds S [--seed N] "
               "[--trace 0|1] [--trace-file FILE] [--items N] "
               "[--workdir DIR] [--commit SHA]\n"
            << "workloads:";
  for (const auto& w : kWorkloads) std::cerr << " " << w.name;
  std::cerr << "\n";
  std::exit(2);
}

template <class T>
T parse_number(const std::string& key, const std::string& value) {
  std::istringstream in(value);
  T v{};
  if (!(in >> v) || !in.eof()) usage("bad value for --" + key + ": " + value);
  return v;
}

Options parse_args(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) usage("unexpected argument " + key);
    key = key.substr(2);
    std::string value;
    if (const auto eq = key.find('='); eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      usage("missing value for --" + key);
    }
    if (key == "workload") {
      opt.workload = value;
    } else if (key == "seed") {
      opt.seed = parse_number<std::uint64_t>(key, value);
    } else if (key == "seconds") {
      opt.seconds = parse_number<double>(key, value);
      if (!(opt.seconds > 0.0 && opt.seconds <= 3600.0)) {
        usage("--seconds must be in (0, 3600]");
      }
    } else if (key == "trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      opt.trace = value == "1";
    } else if (key == "trace-file") {
      opt.trace_file = value;
    } else if (key == "items") {
      opt.items = parse_number<long>(key, value);
      if (opt.items < 0) usage("--items must be >= 0");
    } else if (key == "workdir") {
      opt.workdir = value;
    } else if (key == "commit") {
      opt.commit = value;
    } else {
      usage("unknown option --" + key);
    }
  }
  if (opt.workload.empty()) usage("--workload is required");
  if (opt.seconds <= 0.0) usage("--seconds is required");
  if (opt.trace && opt.trace_file.empty()) {
    opt.trace_file = opt.workdir + "/trace-" + opt.workload + "-seed" +
                     std::to_string(opt.seed) + ".json";
  }
  return opt;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// Each time scaled to the reference speed by the reference mix's time
// measured next to it (harness.h).
std::vector<double> scaled(const std::vector<double>& t,
                           const std::vector<double>& ref_ms) {
  std::vector<double> out;
  for (std::size_t i = 0; i < t.size() && i < ref_ms.size(); ++i) {
    out.push_back(at_reference(t[i], ref_ms[i]));
  }
  return out;
}

std::vector<Metric> end_to_end(const Measured& m) {
  const auto items = static_cast<double>(m.latency_ms.size());
  return {{"throughput", "items/s", items / m.loop_scaled_s},
          {"latency_p50_ms", "ms",
           quantile(scaled(m.latency_ms, m.latency_ref_ms), 0.5)},
          {"setup_s", "s", quantile(scaled(m.setup_s, m.setup_ref_ms), 0.5)},
          {"peak_rss_mb", "MiB", peak_rss_mb()}};
}

// The same numbers as wall time, printed in the record: what a user waited
// on during this run, at whatever speed the machine ran.
void add_wall_times(Measured& m) {
  const auto items = static_cast<double>(m.latency_ms.size());
  m.extra["wall_throughput"] = items / (m.loop_wall_s - m.reference_s);
  m.extra["wall_latency_p50_ms"] = quantile(m.latency_ms, 0.5);
  m.extra["wall_setup_s"] = quantile(m.setup_s, 0.5);
  m.extra["reference_ms"] = quantile(m.latency_ref_ms, 0.5);
}

std::vector<Metric> per_layer(const Measured& m, const Tracer& tr) {
  std::vector<Metric> out;
  for (Metric metric : kPerLayer) {
    const std::string name = metric.name;
    if (name == "trace.coverage") {
      metric.value = tr.coverage();
    } else if (name == "trace.overhead_frac") {
      const double base = quantile(m.latency_ms, 0.5);
      metric.value =
          base > 0.0 ? quantile(m.traced_latency_ms, 0.5) / base - 1.0 : 0.0;
    } else if (name.size() > 3 && name.compare(name.size() - 3, 3, "_ms") == 0) {
      metric.value = tr.median_ms(name.substr(0, name.size() - 3));
    } else if (const auto it = m.layer.find(name); it != m.layer.end()) {
      metric.value = it->second;
    }
    out.push_back(metric);
  }
  return out;
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string s = "{";
  for (const Metric& metric : metrics) {
    if (s.size() > 1) s += ", ";
    s += "\"" + std::string(metric.name) + "\": {\"value\": " +
         json_number(metric.value) + ", \"unit\": \"" + metric.unit + "\"}";
  }
  return s + "}";
}

}  // namespace
}  // namespace perf

int main(int argc, char** argv) {
  using namespace perf;
  const Options opt = parse_args(argc, argv);
  const Workload* workload = nullptr;
  for (const auto& w : kWorkloads) {
    if (opt.workload == w.name) workload = &w;
  }
  if (workload == nullptr) usage("unknown workload " + opt.workload);

  Tracer tracer(opt.trace);
  Measured m;
  try {
    m = workload->run(opt, tracer);
    if (opt.trace) tracer.write_chrome(opt.trace_file, opt.workload);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << opt.workload << ": " << e.what() << "\n";
    return 1;
  }

  const auto metrics = opt.trace ? per_layer(m, tracer) : end_to_end(m);
  if (!opt.trace) {
    // Printed, not bounded: on a shared machine the 90th percentile tracks
    // neighbour load more than the program, and array_tran runs too few
    // items to have ten beyond it (latency_samples gives the count).
    m.extra["latency_p90_ms"] =
        quantile(scaled(m.latency_ms, m.latency_ref_ms), 0.9);
    m.extra["setup_rounds"] = static_cast<double>(m.setup_s.size());
    add_wall_times(m);
  }
  const bool correct = !m.setup_failed && m.failed == 0;

  std::fprintf(stderr, "%-12s %-26s %22s  %s\n", "workload", "metric", "value",
               "unit");
  for (const Metric& metric : metrics) {
    std::fprintf(stderr, "%-12s %-26s %22.6g  %s\n", opt.workload.c_str(),
                 metric.name, metric.value, metric.unit);
  }
  std::fprintf(stderr, "%-12s %-26s %22ld  %s\n", opt.workload.c_str(),
               "attempted", m.attempted, "items");
  std::fprintf(stderr, "%-12s %-26s %22ld  %s\n", opt.workload.c_str(),
               "failed", m.failed, "items");
  for (const auto& [name, v] : m.extra) {
    std::fprintf(stderr, "%-12s %-26s %22.6g\n", opt.workload.c_str(),
                 name.c_str(), v);
  }
  for (const auto& e : m.errors) {
    std::fprintf(stderr, "%-12s error: %s\n", opt.workload.c_str(), e.c_str());
  }
  if (opt.trace) {
    std::fprintf(stderr, "%-12s trace written to %s\n", opt.workload.c_str(),
                 opt.trace_file.c_str());
  }

  std::ostringstream rec;
  char digest[16];
  std::snprintf(digest, sizeof digest, "%08x", m.digest.value());
  rec << "{\"workload\": \"" << opt.workload << "\", \"seed\": " << opt.seed
      << ", \"trace\": " << (opt.trace ? 1 : 0)
      << ", \"seconds\": " << json_number(opt.seconds)
      << ", \"commit\": \"" << json_escape(opt.commit)
      << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
      << "\", \"nproc\": " << std::thread::hardware_concurrency()
      << ", \"cpu\": \"" << json_escape(cpu_model())
      << "\", \"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << m.attempted << ", \"failed\": " << m.failed
      << ", \"failed_frac\": "
      << json_number(m.attempted > 0 ? static_cast<double>(m.failed) /
                                           static_cast<double>(m.attempted)
                                     : 0.0)
      << ", \"latency_samples\": " << m.latency_ms.size()
      << ", \"result_digest\": \"" << (m.digest_items > 0 ? digest : "")
      << "\", \"digest_items\": " << m.digest_items << ", \"extra\": {";
  bool first = true;
  for (const auto& [name, v] : m.extra) {
    rec << (first ? "" : ", ") << "\"" << name << "\": " << json_number(v);
    first = false;
  }
  rec << "}, \"errors\": [";
  for (std::size_t i = 0; i < m.errors.size(); ++i) {
    rec << (i ? ", " : "") << "\"" << json_escape(m.errors[i]) << "\"";
  }
  rec << "], \"metrics\": " << metrics_json(metrics) << "}";
  std::cout << rec.str() << "\n";

  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << m.attempted
            << ", \"failed\": " << m.failed
            << ", \"metrics\": " << metrics_json(metrics) << "}" << std::endl;
  return correct ? 0 : 1;
}
