// Trace-driven cache simulation (§7).
//
// Replays a resolver-side trace twice — once obeying the logged ECS scopes,
// once disregarding them — and reports per-resolver peak cache size and hit
// rate. Mirrors the paper's simulation assumptions: resolvers retain
// records for exactly the authoritative TTL and never evict early.
//
// Every replay consumes a TraceStream (measurement/trace_stream.h); the
// classic simulate_cache(Trace, ...) entry point wraps the trace in a
// MaterializedTraceStream and runs the identical fold, so the streaming and
// materialized paths cannot diverge. At paper scale a generator stream
// feeds the fold directly and the run's RSS stays bounded by *live cache
// entries*, not by trace length.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <optional>
#include <vector>

#include "dnscore/flat_hash.h"
#include "dnscore/hashing.h"
#include "dnscore/ip.h"
#include "measurement/trace_stream.h"
#include "measurement/tracegen.h"
#include "resolver/eviction.h"

namespace ecsdns::measurement {

namespace detail {

// Cache key: resolver x question x (scope-truncated client block). Without
// ECS the block is the zero prefix. Shared by the unbounded and bounded
// folds.
struct CacheKey {
  std::uint32_t resolver;
  std::uint32_t name;
  dnscore::Prefix block;

  bool operator==(const CacheKey&) const = default;
};

struct CacheKeyHash {
  std::size_t operator()(const CacheKey& k) const noexcept {
    return dnscore::hash_combine(
        dnscore::hash_combine(k.block.hash(), k.resolver), k.name);
  }
};

inline CacheKey cache_key_of(const TraceQuery& q, bool with_ecs) {
  CacheKey key{q.resolver, q.name, dnscore::Prefix{}};
  if (with_ecs && q.scope > 0) {
    const int bits = std::min(q.scope, q.client.bit_length());
    key.block = dnscore::Prefix{q.client, bits};
  }
  return key;
}

}  // namespace detail

struct CacheSimOptions {
  bool with_ecs = true;
  // Overrides every response TTL (Figure 1 re-runs the CDN trace at 20, 40,
  // and 60 seconds).
  std::optional<std::uint32_t> ttl_override;
  // Bounds each resolver's cache; overflow evicts an entry chosen by
  // `policy` before its TTL ("premature eviction", the operational cost §7
  // says operators must size against). Unset = unbounded, the paper's
  // baseline assumption.
  std::optional<std::size_t> max_entries_per_resolver;
  // Victim selection for bounded replays (resolver::EvictionPolicy); LRU
  // preserves the historical behavior.
  resolver::EvictionPolicy policy = resolver::EvictionPolicy::kLru;
  // Shards the replay over up to N netsim::ParallelEngine shards. Neither
  // fold couples keys of different resolvers, so whole resolvers partition
  // across shards (shard_of_id) and replay independently, with no
  // cross-shard reduction. The replay uses min(N, resolvers) shards when
  // it is bounded or the stream is time-ordered, else one. Results are
  // bit-identical to the serial replay for every shard and thread count
  // (the serial-equivalence oracle in tests/test_parallel_determinism.cpp
  // enforces this).
  std::size_t shards = 1;
  // Worker threads for the sharded replay; 0 = one per shard, capped at
  // the hardware. Never affects results.
  std::size_t threads = 0;
  // Pin replay workers to cores (netsim::Topology::pin_order — one shard
  // per physical core, SMT siblings last), with the engine's
  // warn-and-run-unpinned fallback when affinity is denied. Never affects
  // results; forwarded to ParallelConfig::pin_threads.
  bool pin_threads = false;
  // Forwarded to ParallelConfig::runtime_metrics: per-shard busy counters
  // (`engine.shard<i>.busy_us`) and the per-worker straggler-wait
  // histogram (`engine.barrier_wait_us`), merged into the global registry.
  // Counters accumulate across calls, so a caller comparing several
  // replays reads each one's delta. Run metadata, exempt from the
  // byte-identity contract — leave off anywhere exports are compared
  // across shard/thread counts.
  bool runtime_metrics = false;
};

struct ResolverCacheResult {
  std::uint32_t resolver = 0;
  std::size_t max_cache_size = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t premature_evictions = 0;

  double hit_rate() const {
    const auto total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
  }
};

struct CacheSimResult {
  std::vector<ResolverCacheResult> per_resolver;

  const ResolverCacheResult& resolver(std::uint32_t id) const;
  std::uint64_t total_hits() const;
  std::uint64_t total_misses() const;
  double overall_hit_rate() const;
};

// Incremental unbounded replay: feed queries one at a time, read the result
// when the stream ends. This *is* the unbounded fold — every shard of an
// unbounded simulate_cache_stream runs one instance — exposed so streaming
// pipelines (the scale_streaming bench, custom aggregations) can interleave
// generation and simulation without a trace in memory. Memory is O(live
// cache entries + resolvers), independent of how many queries flow through.
//
// Pending expirations sit in a FIFO-first queue: a ring of records whose
// `when` never decreases, plus a small heap for the rest. On a time-ordered
// stream with one TTL every miss pushes a later expiry than the last, so
// every record takes the ring and retiring one is a pop from its front
// instead of a sift through a heap of every live entry. A record whose
// `when` is below the ring's back (mixed TTLs, an unsorted trace) takes the
// heap. Before each query observe() retires every record with
// `when <= q.time` from both. Each cached key has exactly one pending
// record, and retiring it erases that key, so the order records retire in
// cannot change the result, and a key that survives the sweep is a hit
// without reading any expiry. The ring grows by a quarter when full, so
// steady-state observe() allocates nothing once the ring has reached the
// live count.
class StreamingCacheSim {
 public:
  StreamingCacheSim(std::uint32_t resolvers, const CacheSimOptions& options);

  void observe(const TraceQuery& q);
  // Finalizes and returns the per-resolver results (moves them out; the
  // instance is spent afterwards).
  CacheSimResult finish();

  std::uint64_t queries() const noexcept { return queries_; }
  std::size_t live_entries() const noexcept { return cache_.size(); }
  // Expiry records pushed so far that took the ring or the heap; they sum
  // to the misses.
  std::uint64_t ring_pushes() const noexcept { return expirations_.ring_pushes(); }
  std::uint64_t heap_pushes() const noexcept { return expirations_.heap_pushes(); }

 private:
  // The table is a set: a cached key's expiry lives only in its pending
  // expiry record (see observe()).
  struct Cached {};
  struct Expiry {
    SimTime when;
    detail::CacheKey key;
  };
  struct LaterExpiry {
    bool operator()(const Expiry& a, const Expiry& b) const {
      return a.when > b.when;
    }
  };

  class ExpiryQueue {
   public:
    void push(const Expiry& e);
    // Calls retire(e) for every record with e.when <= now, in no
    // particular order, and drops them.
    template <typename Retire>
    void retire_until(SimTime now, Retire&& retire);

    std::uint64_t ring_pushes() const noexcept { return ring_pushes_; }
    std::uint64_t heap_pushes() const noexcept { return heap_pushes_; }

   private:
    void grow_ring();

    struct FreeRing {
      void operator()(Expiry* ring) const noexcept { std::free(ring); }
    };
    // Circular: `size_` of `capacity_` records from `head_`.
    std::unique_ptr<Expiry, FreeRing> ring_;
    std::size_t capacity_ = 0;
    std::size_t head_ = 0;
    std::size_t tail_ = 0;      // next write position
    std::size_t size_ = 0;
    SimTime back_ = 0;          // `when` of the newest ring record
    std::vector<Expiry> heap_;  // min-heap on `when`
    std::uint64_t ring_pushes_ = 0;
    std::uint64_t heap_pushes_ = 0;
  };

  bool with_ecs_;
  std::optional<std::uint32_t> ttl_override_;
  dnscore::FlatHashMap<detail::CacheKey, Cached, detail::CacheKeyHash> cache_;
  ExpiryQueue expirations_;
  std::vector<ResolverCacheResult> results_;
  std::vector<std::size_t> live_;
  std::uint64_t queries_ = 0;
};

// Replays one logical stream, constructing one instance per shard from the
// factory (stream construction is a pure deterministic function, so every
// instance replays the same sequence). Shard 0's instance is built on the
// calling thread; every other shard builds its own on its worker, so the
// factory must be safe to call concurrently. Every call, one shard
// included, runs the same resolver-partitioned program on
// netsim::ParallelEngine: each shard restricts its stream to the resolvers
// it owns (or filters when the stream cannot restrict) and folds them
// through StreamingCacheSim, or through the bounded fold when
// max_entries_per_resolver is set. Shard count: min(options.shards,
// resolvers) when bounded or time-ordered, else one (see
// CacheSimOptions::shards).
CacheSimResult simulate_cache_stream(const TraceStreamFactory& factory,
                                     const CacheSimOptions& options);

CacheSimResult simulate_cache(const Trace& trace, const CacheSimOptions& options);

// Order-independent digest of a deterministic sample of per-resolver rows
// plus the global tallies — the serial-equivalence oracle at scales where
// comparing millions of rows byte-for-byte is too expensive to run per
// shard count. Full byte-identity remains the required check at small
// scales (tests/test_parallel_determinism.cpp).
std::uint64_t sampled_result_digest(const CacheSimResult& result,
                                    std::size_t sample_rows,
                                    std::uint64_t seed);

// Per-resolver blow-up factors: peak cache size with ECS divided by peak
// size without (Figure 1's metric). Resolvers with an empty no-ECS cache
// are skipped. `shards`/`threads`/`pin_threads` forward to CacheSimOptions.
std::vector<double> blowup_factors(const Trace& trace,
                                   std::optional<std::uint32_t> ttl_override,
                                   std::size_t shards = 1,
                                   std::size_t threads = 0,
                                   bool pin_threads = false);

}  // namespace ecsdns::measurement
