#include "harness.h"

#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <sstream>
#include <unistd.h>

#include "obs/alloc_counter.h"

namespace perfbench {

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double thread_cpu_s(std::string_view comm) {
  namespace fs = std::filesystem;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator("/proc/self/task", ec)) {
    std::ifstream name_file(entry.path() / "comm");
    std::string name;
    std::getline(name_file, name);
    if (name != comm) continue;
    std::ifstream stat_file(entry.path() / "stat");
    std::string stat;
    std::getline(stat_file, stat);
    // Fields after the parenthesised command: state is field 3, utime and
    // stime are fields 14 and 15.
    const auto close = stat.rfind(')');
    if (close == std::string::npos) return 0;
    std::istringstream rest(stat.substr(close + 2));
    std::string field;
    unsigned long long utime = 0, stime = 0;
    for (int i = 3; i <= 15 && (rest >> field); ++i) {
      if (i == 14) utime = std::stoull(field);
      if (i == 15) stime = std::stoull(field);
    }
    return static_cast<double>(utime + stime) /
           static_cast<double>(sysconf(_SC_CLK_TCK));
  }
  return 0;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0;
}

std::uint64_t allocations() { return ecsdns::obs::allocation_count(); }

void Window::restart() {
  t0_ = now_ns();
  cpu0_ = process_cpu_s();
  allocs0_ = allocations();
}
double Window::wall_s() const { return static_cast<double>(now_ns() - t0_) * 1e-9; }
double Window::cpu_s() const { return process_cpu_s() - cpu0_; }
std::uint64_t Window::allocs() const { return allocations() - allocs0_; }

Budget Budget::work(double seconds, double units_per_second) {
  Budget b;
  b.units_ = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::llround(seconds * units_per_second)));
  return b;
}

Budget Budget::time(double seconds) {
  Budget b;
  b.deadline_ns_ = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  return b;
}

double Samples::sum() const {
  return std::accumulate(values_.begin(), values_.end(), 0.0);
}

double Samples::mean() const {
  return values_.empty() ? 0.0 : sum() / static_cast<double>(values_.size());
}

double Samples::quantile(double q) const {
  if (values_.empty()) return 0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

double Samples::tail_q() const {
  const auto n = static_cast<double>(values_.size());
  for (const double q : {0.99, 0.95, 0.90, 0.75}) {
    if ((1.0 - q) * n >= 10.0) return q;
  }
  return 0.5;
}

double median(std::vector<double> values) {
  Samples s;
  for (const double v : values) s.add(v);
  return s.quantile(0.5);
}

std::uint32_t Tracer::intern(std::string_view name) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<std::uint32_t>(i);
  }
  names_.emplace_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

std::uint32_t Tracer::open(std::uint32_t name, std::uint32_t parent,
                           std::uint64_t request) {
  Span span;
  span.name = name;
  span.parent = parent;
  span.request = request;
  span.start_ns = now_ns();
  spans_.push_back(span);
  return static_cast<std::uint32_t>(spans_.size() - 1);
}

void Tracer::close(std::uint32_t span, std::uint64_t ops) {
  spans_[span].end_ns = now_ns();
  spans_[span].ops = ops;
}

void Tracer::record(std::uint32_t name, std::int64_t start_ns, std::int64_t end_ns,
                    std::uint64_t ops) {
  Span span;
  span.name = name;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.ops = ops;
  spans_.push_back(span);
}

void Tracer::absorb(const Tracer& other) {
  const auto base = static_cast<std::uint32_t>(spans_.size());
  std::vector<std::uint32_t> remap(other.names_.size());
  for (std::size_t i = 0; i < other.names_.size(); ++i) {
    remap[i] = intern(other.names_[i]);
  }
  for (Span span : other.spans_) {
    span.name = remap[span.name];
    if (span.parent != kNoParent) span.parent += base;
    spans_.push_back(span);
  }
}

namespace {

std::string layer_of(std::string_view name) {
  const auto dot = name.rfind('.');
  return std::string(dot == std::string_view::npos ? name : name.substr(0, dot));
}

}  // namespace

std::vector<Tracer::LayerRow> Tracer::layers() const {
  std::vector<double> child_ns(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent != kNoParent) {
      child_ns[span.parent] += static_cast<double>(span.end_ns - span.start_ns);
    }
  }
  std::vector<LayerRow> rows;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    const std::string layer = layer_of(names_[span.name]);
    auto it = std::find_if(rows.begin(), rows.end(),
                           [&](const LayerRow& r) { return r.layer == layer; });
    if (it == rows.end()) {
      rows.push_back(LayerRow{layer});
      it = rows.end() - 1;
    }
    const auto dur = static_cast<double>(span.end_ns - span.start_ns);
    it->spans += 1;
    it->ops += span.ops;
    it->total_ms += dur * 1e-6;
    it->self_ms += (dur - child_ns[i]) * 1e-6;
  }
  return rows;
}

double Tracer::total_ns(std::string_view name) const {
  double total = 0;
  for (const Span& span : spans_) {
    if (names_[span.name] == name) {
      total += static_cast<double>(span.end_ns - span.start_ns);
    }
  }
  return total;
}

std::uint64_t Tracer::total_ops(std::string_view name) const {
  std::uint64_t total = 0;
  for (const Span& span : spans_) {
    if (names_[span.name] == name) total += span.ops;
  }
  return total;
}

bool Tracer::write_json(const std::string& path, const std::string& workload) const {
  std::error_code ec;
  std::filesystem::create_directories(std::filesystem::path(path).parent_path(), ec);
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(out, "{\"schema\": \"perfbench.spans.v1\", \"workload\": \"%s\",\n",
               workload.c_str());
  std::fprintf(out, " \"fields\": [\"name\", \"start_ns\", \"end_ns\", "
                    "\"parent\", \"request\", \"ops\"],\n \"spans\": [\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out, "  [\"%s\", %lld, %lld, %lld, %llu, %llu]%s\n",
                 names_[s.name].c_str(),
                 static_cast<long long>(s.start_ns - origin),
                 static_cast<long long>(s.end_ns - origin),
                 s.parent == kNoParent ? -1LL : static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.request),
                 static_cast<unsigned long long>(s.ops),
                 i + 1 == spans_.size() ? "" : ",");
  }
  std::fprintf(out, " ]}\n");
  return std::fclose(out) == 0;
}

void Result::check(bool ok, const std::string& what, std::uint64_t weight) {
  if (ok) return;
  failed += weight;
  if (failures.size() < 8) failures.push_back(what);
}

double timed_setups(int times, const std::function<void()>& setup) {
  std::vector<double> walls;
  for (int i = 0; i < std::max(times, 1); ++i) {
    const std::int64_t t0 = now_ns();
    setup();
    walls.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  return median(walls);
}

void add(std::vector<Metric>& into, std::string name, double value,
         std::string unit, std::string note) {
  into.push_back(Metric{std::move(name), value, std::move(unit), std::move(note)});
}

}  // namespace perfbench
