#include "measurement/cache_sim.h"

#include <algorithm>
#include <memory>
#include <new>
#include <queue>
#include <stdexcept>
#include <type_traits>
#include <unordered_map>
#include <utility>

#include "dnscore/contracts.h"
#include "dnscore/flat_hash.h"
#include "dnscore/hashing.h"
#include "measurement/sharding.h"
#include "netsim/parallel_engine.h"
#include "obs/metrics.h"

namespace ecsdns::measurement {

using detail::CacheKey;
using detail::CacheKeyHash;
using detail::cache_key_of;

const ResolverCacheResult& CacheSimResult::resolver(std::uint32_t id) const {
  for (const auto& r : per_resolver) {
    if (r.resolver == id) return r;
  }
  throw std::out_of_range("no such resolver in result");
}

std::uint64_t CacheSimResult::total_hits() const {
  std::uint64_t n = 0;
  for (const auto& r : per_resolver) n += r.hits;
  return n;
}

std::uint64_t CacheSimResult::total_misses() const {
  std::uint64_t n = 0;
  for (const auto& r : per_resolver) n += r.misses;
  return n;
}

double CacheSimResult::overall_hit_rate() const {
  const auto total = total_hits() + total_misses();
  return total == 0 ? 0.0
                    : static_cast<double>(total_hits()) / static_cast<double>(total);
}

// ---------------------------------------------------------------------------
// Unbounded fold: entries leave only by TTL (the paper's §7 assumption).
// Every unbounded replay runs it, one instance per shard.

StreamingCacheSim::StreamingCacheSim(std::uint32_t resolvers,
                                     const CacheSimOptions& options)
    : with_ecs_(options.with_ecs),
      ttl_override_(options.ttl_override),
      results_(resolvers),
      live_(resolvers, 0) {
  for (std::uint32_t r = 0; r < resolvers; ++r) results_[r].resolver = r;
}

void StreamingCacheSim::ExpiryQueue::push(const Expiry& e) {
  if (size_ == 0 || e.when >= back_) {
    if (size_ == capacity_) grow_ring();
    ring_.get()[tail_] = e;
    if (++tail_ == capacity_) tail_ = 0;
    ++size_;
    back_ = e.when;
    ++ring_pushes_;
    return;
  }
  heap_.push_back(e);
  std::push_heap(heap_.begin(), heap_.end(), LaterExpiry{});
  ++heap_pushes_;
}

template <typename Retire>
void StreamingCacheSim::ExpiryQueue::retire_until(SimTime now, Retire&& retire) {
  Expiry* const ring = ring_.get();
  while (size_ > 0 && ring[head_].when <= now) {
    retire(ring[head_]);
    if (++head_ == capacity_) head_ = 0;
    --size_;
  }
  while (!heap_.empty() && heap_.front().when <= now) {
    std::pop_heap(heap_.begin(), heap_.end(), LaterExpiry{});
    retire(heap_.back());
    heap_.pop_back();
  }
}

// Called only when the ring is full. It grows by a quarter, not by
// doubling: the ring holds one record per live entry, and at paper scale
// that is the fold's largest buffer. It grows with realloc rather than a
// new buffer and a copy, because glibc remaps a large block in place
// (mremap) instead of copying it and freeing the old one; every such free
// raises malloc's dynamic mmap threshold, and on the 100K-resolver
// stream_replay benchmark (4-vCPU VM) that pushed later allocations onto
// the brk heap for ~3 MB more peak RSS.
void StreamingCacheSim::ExpiryQueue::grow_ring() {
  static_assert(std::is_trivially_copyable_v<Expiry>);
  constexpr std::size_t kMinRing = 1024;
  const std::size_t capacity = std::max(kMinRing, capacity_ + capacity_ / 4);
  void* grown = std::realloc(ring_.get(), capacity * sizeof(Expiry));
  if (grown == nullptr) throw std::bad_alloc();
  (void)ring_.release();
  ring_.reset(static_cast<Expiry*>(grown));
  if (size_ > 0) {
    // The records run from head_ to the old end, then wrap round to tail_
    // (== head_): slide the first run to the new end, and tail_ stays.
    Expiry* const ring = ring_.get();
    std::copy_backward(ring + head_, ring + capacity_, ring + capacity);
    head_ += capacity - capacity_;
  }
  capacity_ = capacity;
}

void StreamingCacheSim::observe(const TraceQuery& q) {
  ++queries_;
  // Every cached key has exactly one pending record, pushed when it was
  // inserted, whose `when` is its expiry: a key is inserted only while
  // absent and leaves only when that record retires. So every retiring
  // record erases its key, and a key still cached after the sweep expires
  // after q.time.
  expirations_.retire_until(q.time, [this](const Expiry& e) {
    const bool erased = cache_.erase(e.key);
    ECSDNS_DCHECK(erased);
    --live_[e.key.resolver];
  });

  const CacheKey key = cache_key_of(q, with_ecs_);
  auto& result = results_[q.resolver];
  if (!cache_.insert_or_assign(key, Cached{}).second) {
    ++result.hits;
    return;
  }
  ++result.misses;
  const std::uint32_t ttl_s = ttl_override_.value_or(q.ttl_s);
  const SimTime expiry = q.time + static_cast<SimTime>(ttl_s) * netsim::kSecond;
  result.max_cache_size = std::max(result.max_cache_size, ++live_[q.resolver]);
  expirations_.push(Expiry{expiry, key});
}

CacheSimResult StreamingCacheSim::finish() {
  CacheSimResult out;
  out.per_resolver = std::move(results_);
  return out;
}

namespace {

// ---------------------------------------------------------------------------
// Bounded fold: a capacity bound per resolver, overflow evicting the victim
// `options.policy` picks before its TTL. Deliberately separate from the
// unbounded fold, whose observe() is the hot loop of paper-scale replays:
// this one never caches a TTL-0 answer (EcsCache::insert doesn't either),
// and it sweeps expirations per resolver, so retirement timing is a pure
// function of each resolver's own query sequence — on any stream order.
class BoundedCacheSim {
 public:
  BoundedCacheSim(std::uint32_t resolvers, const CacheSimOptions& options,
                  obs::MetricsRegistry& metrics)
      : options_(options),
        evictions_(metrics.counter("cache_sim.capacity_evictions")),
        ages_(metrics.histogram("cache_sim.eviction_age_s")),
        strategy_(resolvers),
        exp_(resolvers),
        live_(resolvers, 0),
        results_(resolvers) {
    for (std::uint32_t r = 0; r < resolvers; ++r) results_[r].resolver = r;
  }

  void observe(const TraceQuery& q) {
    const std::uint32_t r = q.resolver;
    auto& strategy_slot = strategy_.at(r);
    if (!strategy_slot) {
      strategy_slot = resolver::make_eviction_strategy(options_.policy);
    }
    resolver::EvictionStrategy& strategy = *strategy_slot;
    // Retire this resolver's entries that expired by now.
    auto& pending = exp_[r];
    while (!pending.empty() && pending.top().when <= q.time) {
      const PendingExpiry e = pending.top();
      pending.pop();
      const Slot* slot = cache_.find(e.key);
      // Skip stale records (entry refreshed or already evicted); the reads
      // happen before the erase relocates the slot.
      if (slot != nullptr && slot->expiry <= e.when) {
        strategy.on_erase(slot->id);
        key_of_id_.erase(slot->id);
        cache_.erase(e.key);
        --live_[r];
      }
    }

    const CacheKey key = cache_key_of(q, options_.with_ecs);
    auto& result = results_[r];
    const Slot* slot = cache_.find(key);
    if (slot != nullptr && slot->expiry > q.time) {
      ++result.hits;
      strategy.on_hit(slot->id);
      return;
    }
    // The sweep retires anything with expiry <= q.time before the probe,
    // so a miss never finds a stale slot to refresh.
    ECSDNS_DCHECK(slot == nullptr);
    ++result.misses;
    const std::uint32_t ttl_s = options_.ttl_override.value_or(q.ttl_s);
    // TTL-0 answers are used once and never cached (RFC 1035).
    if (ttl_s == 0) return;
    // Make room BEFORE inserting, so the bound is never exceeded — not
    // even transiently — and the incoming entry is not a victim candidate.
    while (live_[r] >= *options_.max_entries_per_resolver &&
           strategy.tracked() > 0) {
      const resolver::EntryId victim = strategy.pick_victim();
      const auto vkey_it = key_of_id_.find(victim);
      ECSDNS_DCHECK(vkey_it != key_of_id_.end());
      const CacheKey vkey = vkey_it->second;
      const Slot* vslot = cache_.find(vkey);
      ECSDNS_DCHECK(vslot != nullptr && vslot->id == victim);
      const SimTime age = q.time > vslot->inserted_at ? q.time - vslot->inserted_at : 0;
      ages_.observe(static_cast<std::uint64_t>(age / netsim::kSecond));
      strategy.on_erase(victim);
      key_of_id_.erase(vkey_it);
      cache_.erase(vkey);
      --live_[r];
      ++result.premature_evictions;
      evictions_.inc();
    }
    const SimTime expiry = q.time + static_cast<SimTime>(ttl_s) * netsim::kSecond;
    const resolver::EntryId id = next_id_++;
    cache_.insert_or_assign(key, Slot{expiry, q.time, id});
    strategy.on_insert(id, resolver::EntryTraits{key.block.length()});
    key_of_id_[id] = key;
    ++live_[r];
    result.max_cache_size = std::max(result.max_cache_size, live_[r]);
    // seq tie-breaks equal expiry times within one resolver's queue; its
    // queries keep their relative order on every shard layout.
    pending.push(PendingExpiry{expiry, seq_++, key});
  }

  CacheSimResult finish() {
    CacheSimResult out;
    out.per_resolver = std::move(results_);
    return out;
  }

 private:
  struct Slot {
    SimTime expiry = 0;
    SimTime inserted_at = 0;
    resolver::EntryId id = 0;
  };
  struct PendingExpiry {
    SimTime when;
    std::uint64_t seq;
    CacheKey key;
  };
  struct LaterExpiry {
    bool operator()(const PendingExpiry& a, const PendingExpiry& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  const CacheSimOptions& options_;
  obs::Counter& evictions_;
  obs::Histogram& ages_;
  dnscore::FlatHashMap<CacheKey, Slot, CacheKeyHash> cache_;
  // Per resolver, created on its first query.
  std::vector<std::unique_ptr<resolver::EvictionStrategy>> strategy_;
  std::unordered_map<resolver::EntryId, CacheKey> key_of_id_;
  resolver::EntryId next_id_ = 1;
  std::uint64_t seq_ = 0;
  std::vector<std::priority_queue<PendingExpiry, std::vector<PendingExpiry>,
                                  LaterExpiry>>
      exp_;
  std::vector<std::size_t> live_;
  std::vector<ResolverCacheResult> results_;
};

// ---------------------------------------------------------------------------
// The replay program (see docs/parallel_engine.md).
//
// Queries of different resolvers never share a cache key, and neither fold
// couples resolvers: each owns its cache entries, live count and (bounded)
// eviction state. So whole resolvers partition across shards by
// shard_of_id, and each shard folds its own stream instance restricted to
// the resolvers it owns — generating only their queries when the stream
// supports restrict_to_members, else dropping the foreign ones. A shard's
// rows equal the serial fold's rows exactly, for every shard count:
//  - bounded: the fold's per-resolver sweep sees only the resolver's own
//    queries, in their stream order;
//  - unbounded: the fold's global sweep retires every expiration with
//    `when <= q.time` before query q, which on a time-ordered stream gives
//    the same hit/miss decision and live count at every insert whatever
//    other resolvers share the queue. That is why simulate_cache_stream
//    shards unbounded replays of time-ordered streams only.
// Shards share nothing, so each runs its whole replay in one run() call,
// building and restricting its own stream there: on the worker, so stream
// set-up parallelizes with the replay instead of running serially ahead
// of it.
class ResolverShard final : public netsim::ShardProgram {
 public:
  // `stream` is the shard's instance when the caller already built it
  // (the dispatch probe), else null and run() builds one from `factory`.
  ResolverShard(const TraceStreamFactory& factory, std::unique_ptr<TraceStream> stream,
                const CacheSimOptions& options, std::size_t index, std::size_t shards,
                std::vector<ResolverCacheResult>& results)
      : factory_(factory),
        stream_(std::move(stream)),
        options_(options),
        index_(index),
        shards_(shards),
        results_(results) {}

  void run(netsim::ShardContext& ctx) override {
    if (!stream_) stream_ = factory_();
    filter_ = shards_ > 1 && !stream_->restrict_to_members(index_, shards_);
    const std::uint32_t resolvers = stream_->info().resolvers;
    if (options_.max_entries_per_resolver) {
      replay(BoundedCacheSim(resolvers, options_, ctx.metrics()));
    } else {
      replay(StreamingCacheSim(resolvers, options_));
    }
    const std::uint64_t hits = rows_.total_hits();
    const std::uint64_t misses = rows_.total_misses();
    ctx.metrics().counter("cache_sim.queries").inc(hits + misses);
    ctx.metrics().counter("cache_sim.hits").inc(hits);
    ctx.metrics().counter("cache_sim.misses").inc(misses);
  }

  void finish(netsim::ShardContext&) override {
    // Serial, in shard-index order: publish owned resolvers' rows.
    for (const auto& row : rows_.per_resolver) {
      if (shard_of_id(row.resolver, shards_) == index_) results_[row.resolver] = row;
    }
  }

 private:
  template <typename Fold>
  void replay(Fold fold) {
    TraceQuery q;
    while (stream_->next(q)) {
      if (!filter_ || shard_of_id(q.resolver, shards_) == index_) fold.observe(q);
    }
    rows_ = fold.finish();
  }

  const TraceStreamFactory& factory_;
  std::unique_ptr<TraceStream> stream_;
  const CacheSimOptions& options_;
  std::size_t index_;
  std::size_t shards_;
  std::vector<ResolverCacheResult>& results_;
  // The stream could not restrict itself: drop foreign resolvers here.
  bool filter_ = false;
  // Every resolver's row; the owned ones are this shard's result.
  CacheSimResult rows_;
};

}  // namespace

CacheSimResult simulate_cache_stream(const TraceStreamFactory& factory,
                                     const CacheSimOptions& options) {
  // The probe answers the dispatch question and then replays as shard 0;
  // every other shard builds its stream on its worker, so the factory is
  // called from several threads at once.
  auto probe = factory();
  const TraceStreamInfo info = probe->info();
  // A bounded fold is shard-invariant on any stream order; the unbounded
  // fold's global sweep needs a time-ordered stream (see ResolverShard).
  const bool shardable = options.max_entries_per_resolver || info.time_ordered;
  const std::size_t shards =
      shardable ? std::max<std::size_t>(
                      1, std::min<std::size_t>(options.shards, info.resolvers))
                : 1;

  // Every row is published by the shard that owns its resolver.
  std::vector<ResolverCacheResult> results(info.resolvers);
  std::vector<std::unique_ptr<netsim::ShardProgram>> programs;
  programs.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    programs.push_back(std::make_unique<ResolverShard>(
        factory, s == 0 ? std::move(probe) : nullptr, options, s, shards, results));
  }
  netsim::ParallelConfig config;
  config.shards = shards;
  config.threads = options.threads;
  config.pin_threads = options.pin_threads;
  config.runtime_metrics = options.runtime_metrics;
  netsim::ParallelEngine engine(config, std::move(programs));
  engine.run();
  engine.merge_metrics(obs::MetricsRegistry::global());

  CacheSimResult out;
  out.per_resolver = std::move(results);
  std::uint64_t peak = 0;
  for (const auto& r : out.per_resolver) {
    peak = std::max<std::uint64_t>(peak, r.max_cache_size);
  }
  obs::MetricsRegistry::global().gauge("cache_sim.peak_entries").set(
      static_cast<std::int64_t>(peak));
  return out;
}

CacheSimResult simulate_cache(const Trace& trace, const CacheSimOptions& options) {
  // One info scan up front, shared by every per-shard stream instance.
  const TraceStreamInfo info = scan_trace_info(trace);
  return simulate_cache_stream(
      [&trace, &info]() -> std::unique_ptr<TraceStream> {
        return std::make_unique<MaterializedTraceStream>(trace, info);
      },
      options);
}

std::uint64_t sampled_result_digest(const CacheSimResult& result,
                                    std::size_t sample_rows,
                                    std::uint64_t seed) {
  constexpr std::uint64_t kPrime = 1099511628211ull;
  std::uint64_t h = 14695981039346656037ull;
  const auto fold = [&h](std::uint64_t v) { h = (h ^ v) * kPrime; };
  const std::size_t n = result.per_resolver.size();
  fold(n);
  fold(result.total_hits());
  fold(result.total_misses());
  if (n == 0) return h;
  for (std::size_t k = 0; k < sample_rows; ++k) {
    const auto& row = result.per_resolver[mix64(seed + k) % n];
    fold(row.resolver);
    fold(row.hits);
    fold(row.misses);
    fold(row.max_cache_size);
    fold(row.premature_evictions);
  }
  return h;
}

std::vector<double> blowup_factors(const Trace& trace,
                                   std::optional<std::uint32_t> ttl_override,
                                   std::size_t shards, std::size_t threads,
                                   bool pin_threads) {
  CacheSimOptions with;
  with.with_ecs = true;
  with.ttl_override = ttl_override;
  with.shards = shards;
  with.threads = threads;
  with.pin_threads = pin_threads;
  CacheSimOptions without;
  without.with_ecs = false;
  without.ttl_override = ttl_override;
  without.shards = shards;
  without.threads = threads;
  without.pin_threads = pin_threads;

  const CacheSimResult ecs = simulate_cache(trace, with);
  const CacheSimResult plain = simulate_cache(trace, without);

  std::vector<double> out;
  out.reserve(ecs.per_resolver.size());
  for (std::size_t i = 0; i < ecs.per_resolver.size(); ++i) {
    const auto base = plain.per_resolver[i].max_cache_size;
    if (base == 0) continue;
    out.push_back(static_cast<double>(ecs.per_resolver[i].max_cache_size) /
                  static_cast<double>(base));
  }
  return out;
}

}  // namespace ecsdns::measurement
