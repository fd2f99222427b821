// A run-to-completion pool of share-nothing shards.
//
// A program's work is partitioned by stable hash into N shards, one
// ShardProgram each. Every shard runs to completion on one worker thread,
// touching only its own program state and its own ShardContext (whose
// MetricsRegistry it records into), so nothing is shared between threads
// while shards run. Once every shard has returned, the programs' finish
// steps run serially in shard-index order on the caller's thread.
//
// The determinism contract (docs/parallel_engine.md): with a fixed shard
// count, results are bit-identical regardless of the thread count, pinning
// or the OS scheduler, because shards share nothing and per-shard
// registries merge in shard-index order with commutative rules. Programs
// that also need identical results across *shard counts* (the
// serial-equivalence oracle) must additionally partition their work so
// that no result depends on the layout — the cache replay in
// measurement/cache_sim.cpp, which gives each shard whole resolvers, is
// the worked example.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "obs/metrics.h"

namespace ecsdns::netsim {

class ParallelEngine;

struct ParallelConfig {
  std::size_t shards = 1;
  // Worker threads; 0 = one per shard, capped at the hardware concurrency.
  // Thread count never affects results, only wall-clock time.
  std::size_t threads = 0;
  // Pin worker w to Topology::detect().pin_order()[w % cores] — one shard
  // per physical core, SMT siblings last. When the affinity syscall is
  // denied (containers, cgroup cpusets, restricted CI) the engine prints
  // one warning to stderr and runs unpinned; results are byte-identical
  // either way, pinning only keeps a worker's shards on one core.
  // With pinning requested the engine always spawns worker threads (even
  // for threads == 1) so the caller's own affinity mask is never touched.
  bool pin_threads = false;
  // Explicit pin targets overriding topology detection. Tests pass an
  // invalid CPU ({-1}) to exercise the warn-and-run-unpinned fallback
  // deterministically. Ignored unless pin_threads is set.
  std::vector<int> pin_cpus;
  // Record wall-clock runtime metrics into the per-shard registries:
  // an `engine.shard<i>.busy_us` counter per shard (time spent running
  // that shard — stragglers show up as outliers instead of being
  // inferred) and an `engine.barrier_wait_us` log2 histogram per worker
  // (time that worker waited for the slowest worker after its last
  // shard). Off by default: timing is run metadata — like `wall_ms` —
  // exempt from the byte-identity contract, so only benches and live runs
  // turn it on. The determinism tests compare full metric exports and
  // must keep it off.
  bool runtime_metrics = false;
};

// Everything a shard owns. Handed to the program's callbacks; never shared
// across threads while shards run. Aligned to a cache line so two shards'
// registries never share one.
class alignas(64) ShardContext {
 public:
  std::size_t index() const noexcept { return index_; }
  obs::MetricsRegistry& metrics() noexcept { return metrics_; }

  ShardContext(const ShardContext&) = delete;
  ShardContext& operator=(const ShardContext&) = delete;

 private:
  friend class ParallelEngine;
  explicit ShardContext(std::size_t index) : index_(index) {}

  std::size_t index_;
  obs::MetricsRegistry metrics_;
};

// One shard's slice of a program: run on a worker thread, then finish on
// the caller's thread.
class ShardProgram {
 public:
  virtual ~ShardProgram() = default;

  // Does the shard's whole share of the work. Runs concurrently with the
  // other shards, so it may touch only this program and `ctx`.
  virtual void run(ShardContext& ctx) = 0;

  // Runs after every shard's run() returned, serially in shard-index
  // order — the place for deterministic result extraction. Skipped for
  // every shard when any run() threw.
  virtual void finish(ShardContext&) {}
};

class ParallelEngine {
 public:
  ParallelEngine(ParallelConfig config,
                 std::vector<std::unique_ptr<ShardProgram>> programs);
  ~ParallelEngine();

  ParallelEngine(const ParallelEngine&) = delete;
  ParallelEngine& operator=(const ParallelEngine&) = delete;

  // Runs every shard to completion, then the finish steps. If shard
  // programs throw, every shard still runs to completion, no finish step
  // runs, and the exception of the lowest-indexed failing shard is
  // rethrown here — the same one at every thread count.
  void run();

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
  // The CPUs workers pin to: config_.pin_cpus when set, else the detected
  // topology's pin_order(). Empty disables pinning (with the warning).
  std::vector<int> pin_targets() const;

  ParallelConfig config_;
  std::vector<std::unique_ptr<ShardProgram>> programs_;
  std::vector<std::unique_ptr<ShardContext>> shards_;
  std::size_t pinned_workers_ = 0;
};

}  // namespace ecsdns::netsim
