// Shared plumbing for the benchmark binary: clocks, resource counters,
// sample statistics, the in-memory span tracer and the result record every
// workload fills in.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

// ---- clocks and process counters -----------------------------------------

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// CPU time of the whole process (every thread), in seconds.
double process_cpu_s();
// CPU time of the named thread of this process (Linux /proc, clock-tick
// resolution); 0 when no thread carries that name.
double thread_cpu_s(std::string_view comm);
// Peak resident set size (VmHWM) in MiB.
double peak_rss_mb();
// Heap allocations since process start (the counting operator new).
std::uint64_t allocations();

// Wall time, process CPU time and allocations over one timed window.
class Window {
 public:
  Window() { restart(); }
  void restart();
  double wall_s() const;
  double cpu_s() const;
  std::uint64_t allocs() const;

 private:
  std::int64_t t0_ = 0;
  double cpu0_ = 0;
  std::uint64_t allocs0_ = 0;
};

// How long a timed window runs: a fixed amount of work, so that every
// untraced run of one --seconds does the same work whatever the machine's
// speed at the moment, or a wall-clock deadline (traced windows, probes).
class Budget {
 public:
  // `seconds` of work at `units_per_second`, the nominal rate of one work
  // unit on the reference machine; at least one unit.
  static Budget work(double seconds, double units_per_second);
  static Budget time(double seconds);
  bool more(std::uint64_t units_done) const {
    return units_ ? units_done < units_ : now_ns() < deadline_ns_;
  }

 private:
  std::uint64_t units_ = 0;
  std::int64_t deadline_ns_ = 0;
};

// ---- sample statistics ---------------------------------------------------

class Samples {
 public:
  void reserve(std::size_t n) { values_.reserve(n); }
  void add(double v) { values_.push_back(v); }
  void clear() { values_.clear(); }
  std::size_t size() const { return values_.size(); }
  double at(std::size_t i) const { return values_[i]; }
  double sum() const;
  double mean() const;
  // Linear-interpolated quantile, q in [0, 1]; 0 for an empty set.
  double quantile(double q) const;
  // The highest of p99/p95/p90/p75/p50 with at least ten samples beyond
  // it (the tail a sample of this size supports).
  double tail_q() const;

 private:
  std::vector<double> values_;
};

// Median of a handful of repeated measurements.
double median(std::vector<double> values);

// ---- span tracer ---------------------------------------------------------

// Spans recorded from the benchmark's own code around calls into the
// library's public functions. Storage is reserved up front so recording in
// a hot loop does not allocate; spans stay in memory until write_json().
// One Tracer per thread.
class Tracer {
 public:
  static constexpr std::uint32_t kNoParent = ~0u;

  struct Span {
    std::uint32_t name = 0;
    std::uint32_t parent = kNoParent;
    std::uint64_t request = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::uint64_t ops = 1;  // operations a batched span covers
  };

  explicit Tracer(std::size_t reserve = 1 << 16) { spans_.reserve(reserve); }

  std::uint32_t intern(std::string_view name);
  // Opens a span and returns its index (the parent handle for children).
  std::uint32_t open(std::uint32_t name, std::uint32_t parent = kNoParent,
                     std::uint64_t request = 0);
  void close(std::uint32_t span, std::uint64_t ops = 1);
  // Records an already-timed root span.
  void record(std::uint32_t name, std::int64_t start_ns, std::int64_t end_ns,
              std::uint64_t ops);

  const std::vector<Span>& spans() const { return spans_; }
  // Appends another thread's spans (indexes and parents are rebased).
  void absorb(const Tracer& other);

  struct LayerRow {
    std::string layer;
    std::uint64_t spans = 0;
    std::uint64_t ops = 0;
    double total_ms = 0;
    double self_ms = 0;
  };
  // Self time per layer: a span's duration minus the time its child spans
  // cover. A layer is the span name up to the last '.'.
  std::vector<LayerRow> layers() const;
  // Sum of durations (ns) of spans with this name.
  double total_ns(std::string_view name) const;
  // Sum of the ops those spans cover.
  std::uint64_t total_ops(std::string_view name) const;

  bool write_json(const std::string& path, const std::string& workload) const;

 private:
  std::vector<std::string> names_;
  std::vector<Span> spans_;
};

// RAII span.
class Scope {
 public:
  Scope(Tracer& tracer, std::uint32_t name,
        std::uint32_t parent = Tracer::kNoParent, std::uint64_t request = 0)
      : tracer_(tracer), span_(tracer.open(name, parent, request)) {}
  ~Scope() { tracer_.close(span_, ops_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  std::uint32_t id() const { return span_; }
  void set_ops(std::uint64_t ops) { ops_ = ops; }

 private:
  Tracer& tracer_;
  std::uint32_t span_;
  std::uint64_t ops_ = 1;
};

// ---- results -------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string note;  // base of a ratio, sample count of a percentile, ...
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Fault injection for the self-test: corrupts one checked output so the
  // check must fail.
  bool corrupt = false;
  std::string trace_dir = ".bench_build/traces";
};

// What one workload run produces. `e2e` holds the end-to-end metrics
// (untraced run), `layer` the per-layer metrics (traced run); `extra`
// holds metrics printed for people but not part of the JSON result line.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  // first few failed checks, for people
  std::vector<Metric> e2e;
  std::vector<Metric> layer;
  std::vector<Metric> extra;
  std::vector<Tracer::LayerRow> layer_table;
  double traced_wall_ms = 0;

  void check(bool ok, const std::string& what, std::uint64_t weight = 1);
  void count(std::uint64_t attempts) { attempted += attempts; }
};

// Set-ups of an untraced bounded_replay or live_udp process; bounded_replay
// times one window after each.
constexpr int kSegments = 5;

// Runs `setup` `times` times and returns the median wall time; the state
// the last call built is the one the timed window uses.
double timed_setups(int times, const std::function<void()>& setup);

void add(std::vector<Metric>& into, std::string name, double value,
         std::string unit, std::string note = {});

}  // namespace perfbench
