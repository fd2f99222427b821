#include "netsim/parallel_engine.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <exception>
#include <latch>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "netsim/topology.h"

namespace ecsdns::netsim {

namespace {

// Monotonic microseconds for the opt-in runtime metrics. steady_clock, not
// wall clock: timing is run metadata, never simulation input.
std::uint64_t runtime_now_us() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

ParallelEngine::ParallelEngine(ParallelConfig config,
                               std::vector<std::unique_ptr<ShardProgram>> programs)
    : config_(std::move(config)), programs_(std::move(programs)) {
  if (config_.shards == 0) config_.shards = 1;
  if (programs_.size() != config_.shards) {
    throw std::invalid_argument("need exactly one program per shard");
  }
  shards_.reserve(config_.shards);
  for (std::size_t i = 0; i < config_.shards; ++i) {
    shards_.emplace_back(new ShardContext(i));
  }
}

ParallelEngine::~ParallelEngine() = default;

std::size_t ParallelEngine::effective_threads() const {
  std::size_t threads = config_.threads;
  if (threads == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    threads = hw == 0 ? 1 : hw;
  }
  if (threads > shards_.size()) threads = shards_.size();
  return threads == 0 ? 1 : threads;
}

std::vector<int> ParallelEngine::pin_targets() const {
  if (!config_.pin_cpus.empty()) return config_.pin_cpus;
  return Topology::detect().pin_order();
}

void ParallelEngine::run() {
  const std::size_t n = shards_.size();
  const std::size_t threads = effective_threads();
  pinned_workers_ = 0;

  // Runtime-metric handles, resolved before any worker starts (registry
  // lookups take a mutex). busy[i] lives in shard i's registry and
  // barrier_wait[w] in shard w's; worker w is the only thread running
  // shard w, so no registry is written from two threads.
  std::vector<obs::Counter*> busy(n, nullptr);
  std::vector<obs::Histogram*> barrier_wait(threads, nullptr);
  if (config_.runtime_metrics) {
    for (std::size_t i = 0; i < n; ++i) {
      busy[i] = &shards_[i]->metrics_.counter("engine.shard" + std::to_string(i) +
                                              ".busy_us");
    }
    for (std::size_t w = 0; w < threads; ++w) {
      barrier_wait[w] = &shards_[w]->metrics_.histogram("engine.barrier_wait_us");
    }
  }

  std::vector<std::exception_ptr> errors(n);
  auto run_shard = [&](std::size_t i) {
    const std::uint64_t t0 = busy[i] != nullptr ? runtime_now_us() : 0;
    try {
      programs_[i]->run(*shards_[i]);
    } catch (...) {
      errors[i] = std::current_exception();
    }
    if (busy[i] != nullptr) busy[i]->inc(runtime_now_us() - t0);
  };

  // Pinning always routes through the worker pool — even at one thread —
  // so the caller's own affinity mask is never mutated.
  if (threads == 1 && !config_.pin_threads) {
    for (std::size_t i = 0; i < n; ++i) run_shard(i);
  } else {
    const std::vector<int> targets = config_.pin_threads ? pin_targets()
                                                         : std::vector<int>{};
    std::atomic<std::size_t> pinned{0};
    std::latch all_done(static_cast<std::ptrdiff_t>(threads));
    auto worker = [&](std::size_t w) {
      char name[16];
      std::snprintf(name, sizeof(name), "shard-%zu", w);
      set_current_thread_name(name);
      if (config_.pin_threads && !targets.empty() &&
          pin_current_thread_to_cpu(targets[w % targets.size()])) {
        pinned.fetch_add(1, std::memory_order_relaxed);
      }
      for (std::size_t i = w; i < n; i += threads) run_shard(i);
      // The straggler wait: how long this worker idles until the slowest
      // worker finishes its last shard.
      const std::uint64_t t0 = barrier_wait[w] != nullptr ? runtime_now_us() : 0;
      all_done.arrive_and_wait();
      if (barrier_wait[w] != nullptr) barrier_wait[w]->observe(runtime_now_us() - t0);
    };
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (std::size_t w = 0; w < threads; ++w) pool.emplace_back(worker, w);
    for (auto& t : pool) t.join();
    pinned_workers_ = pinned.load(std::memory_order_relaxed);
    if (config_.pin_threads && pinned_workers_ < threads) {
      // Graceful fallback, not an error: containers and restricted CI deny
      // the affinity syscall. Results are unaffected; only say so once.
      std::fprintf(stderr,
                   "[parallel_engine] warning: pinned %zu/%zu workers "
                   "(affinity unavailable); continuing unpinned\n",
                   pinned_workers_, threads);
    }
  }

  for (const auto& err : errors) {
    if (err) std::rethrow_exception(err);
  }
  for (std::size_t i = 0; i < n; ++i) programs_[i]->finish(*shards_[i]);
}

void ParallelEngine::merge_metrics(obs::MetricsRegistry& into) const {
  for (const auto& shard : shards_) into.merge_from(shard->metrics_);
}

}  // namespace ecsdns::netsim
