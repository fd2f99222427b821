// Sharded parallel execution for the discrete-event simulator.
//
// The population of a simulation is partitioned by stable hash into N
// shards. Each shard owns its own EventLoop, its own RNG stream (split from
// the run seed, see netsim::stream_seed), and its own MetricsRegistry, so
// nothing on the hot path is shared between threads. Shards advance in
// conservative lock-step epochs: during an epoch a shard may only touch its
// own state; anything destined for another shard goes into a per-pair SPSC
// mailbox that the receiver drains at the next epoch boundary. A message
// scheduled at a simulation time must therefore lie at least one epoch in
// the future — which is safe exactly when the epoch length is no larger
// than the minimum cross-shard latency of the network model, because no
// simulated packet can cross shards faster than that.
//
// The determinism contract (docs/parallel_engine.md): with a fixed seed and
// shard count, results are bit-identical regardless of the thread count or
// the OS scheduler. Within an epoch shards share nothing; between epochs
// mailboxes are drained in (source shard, FIFO) order; per-shard registries
// merge in shard-index order with commutative rules. Programs that also
// need identical results across *shard counts* (the serial-equivalence
// oracle) must additionally partition their work so that no result depends
// on the layout — the cache replay in measurement/cache_sim.cpp, which
// gives each shard whole resolvers, is the worked example.
#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <vector>

#include "netsim/buffer_pool.h"
#include "netsim/event_loop.h"
#include "netsim/geo.h"
#include "netsim/rng.h"
#include "obs/metrics.h"

namespace ecsdns::netsim {

class ParallelEngine;

struct ParallelConfig {
  std::size_t shards = 1;
  // Worker threads; 0 = one per shard, capped at the hardware concurrency.
  // Thread count never affects results, only wall-clock time.
  std::size_t threads = 0;
  // Epoch (lookahead) length. Event-driven programs that exchange
  // simulation messages must keep this <= conservative_epoch(model);
  // programs that send no simulation messages (the cache replay sends
  // none) may use any epoch.
  SimTime epoch = kSecond;
  std::uint64_t seed = 1;
  // Pin worker w to Topology::detect().pin_order()[w % cores] — one shard
  // per physical core, SMT siblings last. When the affinity syscall is
  // denied (containers, cgroup cpusets, restricted CI) the engine prints
  // one warning to stderr and runs unpinned; results are byte-identical
  // either way, pinning only steadies the per-epoch barrier latency.
  // With pinning requested the engine always spawns worker threads (even
  // for threads == 1) so the caller's own affinity mask is never touched.
  bool pin_threads = false;
  // Explicit pin targets overriding topology detection. Tests pass an
  // invalid CPU ({-1}) to exercise the warn-and-run-unpinned fallback
  // deterministically. Ignored unless pin_threads is set.
  std::vector<int> pin_cpus;
  // Record wall-clock runtime metrics into the per-shard registries:
  // an `engine.shard<i>.busy_us` counter per shard (time spent stepping
  // that shard — stragglers show up as outliers instead of being
  // inferred) and an `engine.barrier_wait_us` log2 histogram per worker
  // (time parked at the inter-round barrier). Off by default: timing is
  // run metadata — like `wall_ms` — exempt from the byte-identity
  // contract, so only benches and live runs turn it on. The determinism
  // tests compare full metric exports and must keep it off.
  bool runtime_metrics = false;
};

// The largest epoch that is conservatively safe for simulation messages:
// the minimum one-way cross-shard latency of the latency model (two nodes
// at zero distance still pay the fixed per-direction overhead).
SimTime conservative_epoch(const LatencyModel& model);

// Everything a shard owns. Handed to the program's callbacks; never shared
// across threads within an epoch. Aligned to a cache line so two shards'
// hot members (loop cursor, RNG state) never share one.
class alignas(64) ShardContext {
 public:
  using Mail = std::function<void(ShardContext&)>;

  std::size_t index() const noexcept { return index_; }
  std::size_t shard_count() const noexcept;
  EventLoop& loop() noexcept { return loop_; }
  Rng& rng() noexcept { return rng_; }
  obs::MetricsRegistry& metrics() noexcept { return metrics_; }
  // Shard-local wire-buffer freelist (never shared across threads, like
  // everything else here); programs that serialize packets inside epochs
  // recycle buffers through it instead of allocating per event.
  BufferPool& buffer_pool() noexcept { return pool_; }
  // End of the epoch currently executing (exclusive).
  SimTime epoch_end() const noexcept;

  // Control-plane message: runs on shard `to` at the start of the next
  // epoch, before that shard's events. Delivery order is deterministic:
  // ascending source shard index, FIFO within a source. Carries no
  // simulation timestamp — use it for accounting streams and merges.
  void post(std::size_t to, Mail mail);

  // Simulation message: scheduled on shard `to`'s event loop at absolute
  // time `when`. Enforces the conservative bound `when >= epoch_end()` —
  // the receiver may already have advanced to the epoch boundary, so an
  // earlier delivery would rewind its clock.
  void post_at(std::size_t to, SimTime when, EventLoop::Callback fn);

  ShardContext(const ShardContext&) = delete;
  ShardContext& operator=(const ShardContext&) = delete;

 private:
  friend class ParallelEngine;
  ShardContext(ParallelEngine& engine, std::size_t index, std::uint64_t seed)
      : engine_(engine), index_(index), rng_(Rng::stream(seed, index)) {}

  ParallelEngine& engine_;
  std::size_t index_;
  EventLoop loop_;
  Rng rng_;
  obs::MetricsRegistry metrics_;
  BufferPool pool_;
};

// One shard's slice of a simulation. The engine drives each program
// through setup -> {epoch}* -> finish on its own shard.
class ShardProgram {
 public:
  virtual ~ShardProgram() = default;

  // Runs once before the first epoch, on the shard's context.
  virtual void setup(ShardContext&) {}

  // Advance local work to exactly `epoch_end`. Called every epoch after
  // the shard's inbound mail was drained; the engine runs
  // loop().run_until(epoch_end) afterwards, so event-driven programs can
  // leave this empty.
  virtual void epoch(ShardContext&, SimTime epoch_end) = 0;

  // True once this shard has no local work left (mail in flight is the
  // engine's business). The engine keeps running epochs while any program
  // is unfinished, any loop has pending events, or any mailbox is
  // non-empty.
  virtual bool done(const ShardContext&) const = 0;

  // Runs after global termination, serially in shard-index order — the
  // place for deterministic result extraction.
  virtual void finish(ShardContext&) {}
};

class ParallelEngine {
 public:
  ParallelEngine(ParallelConfig config,
                 std::vector<std::unique_ptr<ShardProgram>> programs);
  ~ParallelEngine();

  ParallelEngine(const ParallelEngine&) = delete;
  ParallelEngine& operator=(const ParallelEngine&) = delete;

  // Runs all shards in lock-step epochs to completion; returns the number
  // of epochs executed. If a shard program throws, every shard is wound
  // down at the next barrier and the first exception (by shard index) is
  // rethrown here.
  std::uint64_t run();

  std::size_t shard_count() const noexcept { return shards_.size(); }
  ShardContext& shard(std::size_t i) { return *shards_[i]; }

  // The worker count run() will actually use (threads capped at shards and
  // hardware concurrency); benches print it next to the q/s they measured.
  std::size_t effective_threads() const;

  // Workers whose pin succeeded during the last run(); equals
  // effective_threads() on a machine that allows affinity, 0 when the
  // fallback engaged (or pinning was never requested).
  std::size_t pinned_workers() const noexcept { return pinned_workers_; }

  // Folds every per-shard registry into `into`, in shard-index order.
  void merge_metrics(obs::MetricsRegistry& into) const;

 private:
  friend class ShardContext;

  struct TimedMail {
    SimTime when;
    EventLoop::Callback fn;
  };

  // One SPSC mailbox, padded to its own cache line. Adjacent mailboxes
  // belong to different (src, dst) pairs that are touched concurrently by
  // different threads within a round; without the padding a writer's
  // push_back and an unrelated pair's drain would bounce the same line
  // (false sharing — measurable at 8+ shards).
  struct alignas(64) ControlBox {
    std::vector<ShardContext::Mail> items;
  };
  struct alignas(64) TimedBox {
    std::vector<TimedMail> items;
  };

  // Per-shard drain scratch: step_shard swaps a full inbox into here, runs
  // the batch locally, then hands the (cleared) buffer back on the next
  // swap. The writer's vector header is touched exactly once per drain
  // instead of once per message, and capacities recirculate so the steady
  // state allocates nothing. Padded for the same reason as the mailboxes.
  struct alignas(64) DrainScratch {
    std::vector<ShardContext::Mail> control;
    std::vector<TimedMail> timed;
  };

  std::size_t mailbox_index(std::size_t src, std::size_t dst) const noexcept {
    return src * shards_.size() + dst;
  }
  // One shard's work for the current round: drain inbox, run the program's
  // epoch, run the loop to the boundary.
  void step_shard(std::size_t i);
  // Runs between rounds with every worker quiescent: decides termination
  // and opens the next epoch. Returns false to stop. noexcept because it
  // runs as a barrier completion step.
  bool coordinate() noexcept;
  // The CPUs workers pin to: config_.pin_cpus when set, else the detected
  // topology's pin_order(). Empty disables pinning (with the warning).
  std::vector<int> pin_targets() const;

  ParallelConfig config_;
  std::vector<std::unique_ptr<ShardProgram>> programs_;
  std::vector<std::unique_ptr<ShardContext>> shards_;

  // Per-pair SPSC mailboxes, double-buffered by epoch parity: during round
  // k writers append to buffer (k & 1) and readers drain buffer (~k & 1),
  // so a pair's buffers are never touched from two threads at once. The
  // inter-round barrier provides the happens-before edge.
  std::vector<ControlBox> control_mail_[2];
  std::vector<TimedBox> timed_mail_[2];
  std::vector<DrainScratch> scratch_;  // one per shard, worker-local use

  // Runtime-metric handles, resolved once per run() (registry lookups take
  // a mutex — never on the per-epoch path). busy_[i] lives in shard i's
  // registry; barrier_wait_[w] in shard w's (worker w is the only thread
  // stepping shard w, so no cross-thread registry writes inside a round).
  std::vector<obs::Counter*> busy_;
  std::vector<obs::Histogram*> barrier_wait_;

  // Round state, grouped on its own cache line: mutated only in
  // coordinate() (all workers parked), read by every worker each round —
  // keep it off the lines the workers write.
  struct alignas(64) RoundState {
    std::size_t parity = 0;
    SimTime epoch_end = 0;
    std::uint64_t rounds = 0;
    bool stop = false;
  };
  RoundState round_;
  std::size_t pinned_workers_ = 0;
  std::vector<std::exception_ptr> errors_;
};

}  // namespace ecsdns::netsim
