// The four benchmark workloads. Each builds its inputs from Options::seed,
// times its set-up on its own, warms up, and then either measures the
// end-to-end metrics untraced (Options::trace false) or measures an
// untraced and a traced window and reports per-layer metrics (true).
#pragma once

#include <optional>

#include "harness.h"

namespace perfbench {

void stream_replay(const Options& options, Result& result);
void bounded_replay(const Options& options, Result& result);
void sim_resolve(const Options& options, Result& result);
void live_udp(const Options& options, Result& result);

// The end-to-end figures of one timed window. A window follows either a
// fresh set-up (setup_s holds its time) or the previous window of the
// same set-up.
struct EndToEnd {
  std::optional<double> setup_s;
  double throughput_qps = 0;
  double cpu_ns_per_query = 0;
  Samples latency_us;
  std::uint64_t queries = 0;
  std::uint64_t allocs = 0;
};
// Reports the end-to-end metrics over a process's windows: set-up time as
// the median over the set-ups, throughput and CPU time per query at the
// quantiles below, and the process's peak RSS. It
// also prints one `window` line per window, from which run.py pools the
// windows of several processes. Latency percentiles over the samples of
// all windows pooled are printed with the workload metrics.
// `rate_name` names the workload's throughput metric (replay_qps, ...);
// `latency_unit` says what one latency sample times.
// The quantiles behind throughput_qps and cpu_ns_per_query: the rate nine
// windows in ten reach (the p90 window time, over fixed work per window)
// and the p90 of CPU time per query. On a shared host a window runs either
// at a floor speed (neighbours busy) or at a faster and far more variable
// one, and the share of time in each drifts over minutes; the low decile
// of the rates stays near the floor, where the median jumps between the
// two. run.py applies the same quantiles to the pooled windows of its
// processes.
constexpr double kRateQuantile = 0.10;
constexpr double kCostQuantile = 0.90;

void report_end_to_end(const std::vector<EndToEnd>& windows, const std::string& rate_name,
                       const std::string& latency_unit, Result& result);

// Tracing overhead: how much slower the traced window ran than the
// untraced one on the same work metric.
void report_overhead(double untraced, double traced, const std::string& what,
                     Result& result);

}  // namespace perfbench
