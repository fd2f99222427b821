#include "netsim/parallel_engine.h"

#include <atomic>
#include <barrier>
#include <chrono>
#include <cstdio>
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

SimTime conservative_epoch(const LatencyModel& model) {
  const SimTime bound = model.one_way(0.0);
  return bound > 0 ? bound : 1;
}

std::size_t ShardContext::shard_count() const noexcept {
  return engine_.shard_count();
}

SimTime ShardContext::epoch_end() const noexcept {
  return engine_.round_.epoch_end;
}

void ShardContext::post(std::size_t to, Mail mail) {
  if (to >= engine_.shard_count()) {
    throw std::out_of_range("post: no such shard");
  }
  engine_.control_mail_[engine_.round_.parity]
                       [engine_.mailbox_index(index_, to)]
      .items.push_back(std::move(mail));
}

void ShardContext::post_at(std::size_t to, SimTime when, EventLoop::Callback fn) {
  if (to >= engine_.shard_count()) {
    throw std::out_of_range("post_at: no such shard");
  }
  if (when < engine_.round_.epoch_end) {
    // Delivering below the lookahead bound would rewind the receiver's
    // clock: it may already sit at the epoch boundary. The epoch length
    // must not exceed the minimum cross-shard latency (conservative_epoch).
    throw std::invalid_argument(
        "post_at: delivery time below the conservative epoch bound");
  }
  engine_.timed_mail_[engine_.round_.parity][engine_.mailbox_index(index_, to)]
      .items.push_back(ParallelEngine::TimedMail{when, std::move(fn)});
}

ParallelEngine::ParallelEngine(ParallelConfig config,
                               std::vector<std::unique_ptr<ShardProgram>> programs)
    : config_(std::move(config)), programs_(std::move(programs)) {
  if (config_.shards == 0) config_.shards = 1;
  if (config_.epoch <= 0) {
    throw std::invalid_argument("epoch length must be positive");
  }
  if (programs_.size() != config_.shards) {
    throw std::invalid_argument("need exactly one program per shard");
  }
  shards_.reserve(config_.shards);
  for (std::size_t i = 0; i < config_.shards; ++i) {
    shards_.emplace_back(new ShardContext(*this, i, config_.seed));
  }
  const std::size_t pairs = config_.shards * config_.shards;
  for (auto& parity : control_mail_) parity.resize(pairs);
  for (auto& parity : timed_mail_) parity.resize(pairs);
  scratch_.resize(config_.shards);
  errors_.resize(config_.shards);
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

void ParallelEngine::step_shard(std::size_t i) {
  ShardContext& ctx = *shards_[i];
  DrainScratch& scratch = scratch_[i];
  // Drain the inboxes written last round (opposite parity), ascending
  // source index, FIFO within a source. Each non-empty box is swapped into
  // shard-local scratch and run as one batch — a single touch of the
  // writer's vector header per pair, and the emptied capacity circulates
  // back for the writer's next round. Control mail runs immediately; timed
  // mail lands on the loop, where the (when, seq) order keeps equal-time
  // events in delivery order.
  const std::size_t read = round_.parity ^ 1u;
  for (std::size_t src = 0; src < shards_.size(); ++src) {
    auto& control = control_mail_[read][mailbox_index(src, i)].items;
    if (!control.empty()) {
      scratch.control.swap(control);
      for (auto& mail : scratch.control) mail(ctx);
      scratch.control.clear();
    }
    auto& timed = timed_mail_[read][mailbox_index(src, i)].items;
    if (!timed.empty()) {
      scratch.timed.swap(timed);
      for (auto& m : scratch.timed) ctx.loop_.schedule_at(m.when, std::move(m.fn));
      scratch.timed.clear();
    }
  }
  programs_[i]->epoch(ctx, round_.epoch_end);
  ctx.loop_.run_until(round_.epoch_end);
}

bool ParallelEngine::coordinate() noexcept {
  ++round_.rounds;
  for (const auto& err : errors_) {
    if (err) return false;
  }
  bool more = false;
  for (std::size_t i = 0; i < shards_.size() && !more; ++i) {
    if (!shards_[i]->loop_.empty()) more = true;
    if (!programs_[i]->done(*shards_[i])) more = true;
  }
  if (!more) {
    // Mail written this round still needs one more epoch to deliver.
    for (const auto& box : control_mail_[round_.parity]) {
      if (!box.items.empty()) {
        more = true;
        break;
      }
    }
  }
  if (!more) {
    for (const auto& box : timed_mail_[round_.parity]) {
      if (!box.items.empty()) {
        more = true;
        break;
      }
    }
  }
  if (!more) return false;
  round_.parity ^= 1u;
  round_.epoch_end += config_.epoch;
  return true;
}

std::uint64_t ParallelEngine::run() {
  const std::size_t n = shards_.size();
  round_ = RoundState{};
  pinned_workers_ = 0;
  for (auto& err : errors_) err = nullptr;

  const std::size_t threads = effective_threads();
  busy_.assign(n, nullptr);
  barrier_wait_.assign(threads, nullptr);
  if (config_.runtime_metrics) {
    for (std::size_t i = 0; i < n; ++i) {
      busy_[i] = &shards_[i]->metrics_.counter("engine.shard" +
                                               std::to_string(i) + ".busy_us");
    }
    for (std::size_t w = 0; w < threads; ++w) {
      barrier_wait_[w] = &shards_[w]->metrics_.histogram("engine.barrier_wait_us");
    }
  }

  for (std::size_t i = 0; i < n; ++i) programs_[i]->setup(*shards_[i]);
  round_.epoch_end = config_.epoch;

  auto step_timed = [this](std::size_t i) {
    const std::uint64_t t0 = busy_[i] != nullptr ? runtime_now_us() : 0;
    try {
      step_shard(i);
    } catch (...) {
      errors_[i] = std::current_exception();
    }
    if (busy_[i] != nullptr) busy_[i]->inc(runtime_now_us() - t0);
  };

  // Pinning always routes through the worker pool — even at one thread —
  // so the caller's own affinity mask is never mutated.
  const bool spawn = threads > 1 || config_.pin_threads;
  if (!spawn) {
    for (;;) {
      for (std::size_t i = 0; i < n; ++i) step_timed(i);
      if (!coordinate()) break;
    }
  } else {
    const std::vector<int> targets = config_.pin_threads ? pin_targets()
                                                         : std::vector<int>{};
    std::atomic<std::size_t> pinned{0};
    auto on_round_complete = [this]() noexcept { round_.stop = !coordinate(); };
    std::barrier sync(static_cast<std::ptrdiff_t>(threads), on_round_complete);
    auto worker = [&](std::size_t w) {
      char name[16];
      std::snprintf(name, sizeof(name), "shard-%zu", w);
      set_current_thread_name(name);
      if (config_.pin_threads && !targets.empty() &&
          pin_current_thread_to_cpu(targets[w % targets.size()])) {
        pinned.fetch_add(1, std::memory_order_relaxed);
      }
      obs::Histogram* const barrier_hist = barrier_wait_[w];
      for (;;) {
        for (std::size_t i = w; i < n; i += threads) step_timed(i);
        if (barrier_hist != nullptr) {
          const std::uint64_t t0 = runtime_now_us();
          sync.arrive_and_wait();
          barrier_hist->observe(runtime_now_us() - t0);
        } else {
          sync.arrive_and_wait();
        }
        if (round_.stop) return;
      }
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

  for (const auto& err : errors_) {
    if (err) std::rethrow_exception(err);
  }
  for (std::size_t i = 0; i < n; ++i) programs_[i]->finish(*shards_[i]);
  return round_.rounds;
}

void ParallelEngine::merge_metrics(obs::MetricsRegistry& into) const {
  for (const auto& shard : shards_) into.merge_from(shard->metrics_);
}

}  // namespace ecsdns::netsim
