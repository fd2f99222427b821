// perfbench: runs one benchmark workload and prints its metrics.
//
//   perfbench --workload=NAME --seed=N --seconds=S --trace=0|1
//                    [--corrupt=1] [--trace-dir=DIR]
//
// With --trace=0 it measures the end-to-end metrics with tracing off. With
// --trace=1 it measures the named workload untraced and then traced (the
// difference is the tracing overhead), and adds a short traced probe of
// every other workload so each per-layer metric is measured in every
// traced run. Every output check counts into `failed`; the last line of
// standard output is one JSON object, and the exit code is 1 when any
// check failed. --corrupt=1 deliberately corrupts one checked output, for
// the self-test.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <string>

#include "workloads.h"

namespace perfbench {

void report_end_to_end(const std::vector<EndToEnd>& windows, const std::string& rate_name,
                       const std::string& latency_unit, Result& result) {
  Samples setups, rates, costs, latency_us;
  std::uint64_t queries = 0, allocs = 0;
  for (const EndToEnd& e : windows) {
    if (e.setup_s) setups.add(*e.setup_s);
    rates.add(e.throughput_qps);
    costs.add(e.cpu_ns_per_query);
    queries += e.queries;
    allocs += e.allocs;
    for (std::size_t i = 0; i < e.latency_us.size(); ++i) latency_us.add(e.latency_us.at(i));
    std::printf("window %.10g %.10g %.10g\n", e.throughput_qps, e.cpu_ns_per_query,
                e.setup_s.value_or(-1));
  }
  const std::string over = " over " + std::to_string(windows.size()) + " windows";
  char rate[64], cost[64];
  std::snprintf(rate, sizeof(rate), "p%g of the window rates", kRateQuantile * 100);
  std::snprintf(cost, sizeof(cost), "p%g of the windows", kCostQuantile * 100);
  add(result.e2e, "setup_s", setups.quantile(0.5), "s",
      "median of " + std::to_string(setups.size()) + " set-ups");
  add(result.e2e, "throughput_qps", rates.quantile(kRateQuantile), "1/s",
      rate + over + ", " + rate_name);
  add(result.e2e, "cpu_ns_per_query", costs.quantile(kCostQuantile), "ns", cost + over);
  add(result.e2e, "peak_rss_mb", peak_rss_mb(), "MB", "whole process");
  const double tail_q = latency_us.tail_q();
  const std::string per = std::to_string(latency_us.size()) + " samples of " + latency_unit;
  add(result.extra, "latency_p50_us", latency_us.quantile(0.5), "us", per);
  char tail[32];
  std::snprintf(tail, sizeof(tail), "p%g of ", tail_q * 100);
  add(result.extra, "latency_tail_us", latency_us.quantile(tail_q), "us", tail + per);
  add(result.extra, rate_name, rates.quantile(kRateQuantile), "1/s", rate + over);
  add(result.extra, "allocs_per_query",
      static_cast<double>(allocs) / static_cast<double>(std::max<std::uint64_t>(queries, 1)),
      "count", std::to_string(allocs) + " allocations / " + std::to_string(queries) +
                   " queries, timed windows");
}

void report_overhead(double untraced, double traced, const std::string& what,
                     Result& result) {
  char note[160];
  std::snprintf(note, sizeof(note), "%s untraced %.6g vs traced %.6g", what.c_str(),
                untraced, traced);
  add(result.layer, "tracing.overhead_pct",
      traced > 0 ? (untraced / traced - 1.0) * 100.0 : 0.0, "%", note);
}

}  // namespace perfbench

namespace {

using namespace perfbench;

using WorkloadFn = void (*)(const Options&, Result&);

const std::map<std::string, WorkloadFn>& workloads() {
  static const std::map<std::string, WorkloadFn> table = {
      {"stream_replay", &stream_replay},
      {"bounded_replay", &bounded_replay},
      {"sim_resolve", &sim_resolve},
      {"live_udp", &live_udp},
  };
  return table;
}

// Seconds of each traced probe of the workloads not named on the command
// line.
constexpr double kProbeSeconds = 1.0;

bool parse_flag(const char* arg, const char* name, std::string& out) {
  const std::size_t len = std::strlen(name);
  if (std::strncmp(arg, "--", 2) != 0 || std::strncmp(arg + 2, name, len) != 0 ||
      arg[2 + len] != '=') {
    return false;
  }
  out = arg + 3 + len;
  return true;
}

void print_metrics(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-44s %14.6g %-6s %s\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.note.c_str());
  }
}

void print_layer_table(const std::string& workload, const Result& r) {
  std::printf("per-layer self time, %s (traced window %.1f ms):\n", workload.c_str(),
              r.traced_wall_ms);
  std::printf("  %-36s %10s %12s %12s %12s %8s\n", "layer (span name prefix)", "spans",
              "ops", "total_ms", "self_ms", "self%");
  for (const auto& row : r.layer_table) {
    std::printf("  %-36s %10llu %12llu %12.3f %12.3f %7.1f%%\n", row.layer.c_str(),
                static_cast<unsigned long long>(row.spans),
                static_cast<unsigned long long>(row.ops), row.total_ms, row.self_ms,
                r.traced_wall_ms > 0 ? row.self_ms / r.traced_wall_ms * 100 : 0.0);
  }
  std::printf("  (self%% is self_ms of the %.1f ms traced window)\n", r.traced_wall_ms);
}

void print_json(const Result& r, bool trace) {
  const auto& metrics = trace ? r.layer : r.e2e;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              r.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    // A non-finite value already failed a check; keep the line valid JSON.
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}", i ? ", " : "",
                metrics[i].name.c_str(), v, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  std::string value;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (parse_flag(arg, "workload", value)) {
      options.workload = value;
    } else if (parse_flag(arg, "seed", value)) {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (parse_flag(arg, "seconds", value)) {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (parse_flag(arg, "trace", value)) {
      options.trace = value == "1";
    } else if (parse_flag(arg, "corrupt", value)) {
      options.corrupt = value == "1";
    } else if (parse_flag(arg, "trace-dir", value)) {
      options.trace_dir = value;
    } else {
      std::fprintf(stderr, "perfbench: unknown argument %s\n", arg);
      return 2;
    }
  }
  const auto it = workloads().find(options.workload);
  if (it == workloads().end() || !(options.seconds > 0)) {
    std::fprintf(stderr, "perfbench: need --workload=<%s> and --seconds > 0\n",
                 "stream_replay|bounded_replay|sim_resolve|live_udp");
    return 2;
  }

  std::printf("workload %s, seed %llu, %.3g s, %s\n", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? "traced" : "untraced");
  Result result;
  auto run = [](WorkloadFn fn, const Options& o, Result& r) {
    try {
      fn(o, r);
    } catch (const std::exception& e) {
      r.check(false, std::string("workload threw: ") + e.what());
    }
  };
  run(it->second, options, result);
  if (options.trace) {
    print_layer_table(options.workload, result);
    for (const auto& [name, fn] : workloads()) {
      if (name == options.workload) continue;
      Options probe = options;
      probe.workload = name;
      probe.seconds = kProbeSeconds;
      probe.corrupt = false;
      Result other;
      run(fn, probe, other);
      print_layer_table(name + " (probe)", other);
      for (const Metric& m : other.layer) {
        bool present = false;
        for (const Metric& have : result.layer) present = present || have.name == m.name;
        if (!present) result.layer.push_back(m);
      }
      result.attempted += other.attempted;
      result.failed += other.failed;
      for (const auto& f : other.failures) result.failures.push_back(name + ": " + f);
    }
  }

  const double error_rate =
      result.attempted ? static_cast<double>(result.failed) /
                             static_cast<double>(result.attempted)
                       : 0.0;
  add(result.extra, "error_rate", error_rate, "ratio",
      std::to_string(result.failed) + " failed / " + std::to_string(result.attempted) +
          " attempted");
  if (options.trace) {
    add(result.layer, "run.error_rate", error_rate, "ratio", result.extra.back().note);
  }
  if (result.attempted == 0) result.check(false, "no query was attempted");

  bool finite = true;
  for (const Metric& m : options.trace ? result.layer : result.e2e) {
    finite = finite && std::isfinite(m.value);
  }
  result.check(finite, "a metric is not a finite number");

  if (!options.trace) print_metrics("end-to-end metrics:", result.e2e);
  print_metrics(options.trace ? "other metrics:" : "workload metrics:", result.extra);
  if (options.trace) print_metrics("per-layer metrics:", result.layer);
  for (const auto& f : result.failures) std::printf("CHECK FAILED: %s\n", f.c_str());
  std::printf("checks: %s\n", result.failed == 0 ? "all passed" : "FAILED");
  print_json(result, options.trace);
  return result.failed == 0 ? 0 : 1;
}
