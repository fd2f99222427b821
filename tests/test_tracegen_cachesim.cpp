// Trace generation and the §7 trace-driven cache simulation.
#include <gtest/gtest.h>

#include <array>
#include <map>
#include <numeric>
#include <optional>
#include <queue>
#include <set>

#include "measurement/cache_sim.h"
#include "measurement/trace_stream.h"
#include "measurement/tracegen.h"
#include "netsim/rng.h"

namespace ecsdns::measurement {
namespace {

PublicResolverCdnConfig small_cdn_config() {
  PublicResolverCdnConfig config;
  config.resolvers = 8;
  config.min_clients_per_resolver = 20;
  config.max_clients_per_resolver = 200;
  config.min_qps = 5.0;
  config.max_qps = 40.0;
  config.hostnames = 100;
  config.duration = 5 * netsim::kMinute;
  return config;
}

TEST(TraceGen, DeterministicForSeed) {
  const Trace a = generate_public_resolver_cdn_trace(small_cdn_config());
  const Trace b = generate_public_resolver_cdn_trace(small_cdn_config());
  ASSERT_EQ(a.queries.size(), b.queries.size());
  for (std::size_t i = 0; i < a.queries.size(); ++i) {
    EXPECT_EQ(a.queries[i].time, b.queries[i].time);
    EXPECT_EQ(a.queries[i].client, b.queries[i].client);
    EXPECT_EQ(a.queries[i].name, b.queries[i].name);
  }
  auto changed = small_cdn_config();
  changed.seed = 99;
  const Trace c = generate_public_resolver_cdn_trace(changed);
  EXPECT_NE(a.queries.size(), c.queries.size());
}

TEST(TraceGen, QueriesSortedAndInRange) {
  const Trace t = generate_public_resolver_cdn_trace(small_cdn_config());
  ASSERT_FALSE(t.queries.empty());
  for (std::size_t i = 1; i < t.queries.size(); ++i) {
    EXPECT_LE(t.queries[i - 1].time, t.queries[i].time);
  }
  for (const auto& q : t.queries) {
    EXPECT_LT(q.resolver, t.resolvers);
    EXPECT_LT(q.name, t.hostnames);
    EXPECT_GT(q.scope, 0);
    EXPECT_EQ(q.ttl_s, 20u);
  }
}

TEST(TraceGen, AllNamesAssignsScopePerSld) {
  AllNamesConfig config;
  config.clients = 200;
  config.client_subnets = 50;
  config.hostnames = 300;
  config.slds = 40;
  config.duration = 5 * netsim::kMinute;
  config.queries_per_second = 50;
  const Trace t = generate_all_names_trace(config);
  ASSERT_FALSE(t.queries.empty());
  // Scope and TTL must be consistent per (hostname, family) — zone
  // properties, with separate v4/v6 mapping granularities.
  std::map<std::pair<std::uint32_t, bool>, std::pair<int, std::uint32_t>> per_name;
  bool saw_v6 = false;
  for (const auto& q : t.queries) {
    if (q.client.is_v6()) {
      saw_v6 = true;
      EXPECT_GE(q.scope, 48);
    }
    const auto [it, inserted] = per_name.try_emplace(
        std::make_pair(q.name, q.client.is_v4()), q.scope, q.ttl_s);
    if (!inserted) {
      EXPECT_EQ(it->second.first, q.scope);
      EXPECT_EQ(it->second.second, q.ttl_s);
    }
  }
  EXPECT_TRUE(saw_v6);
}

TEST(TraceGen, SampleClientsFilters) {
  const Trace t = generate_public_resolver_cdn_trace(small_cdn_config());
  const Trace half = sample_clients(t, 0.5, 7);
  EXPECT_NEAR(static_cast<double>(half.clients.size()),
              0.5 * static_cast<double>(t.clients.size()), 1.0);
  EXPECT_LT(half.queries.size(), t.queries.size());
  EXPECT_GT(half.queries.size(), 0u);
  // Every surviving query's client is in the kept set.
  std::set<dnscore::IpAddress> kept(half.clients.begin(), half.clients.end());
  for (const auto& q : half.queries) {
    EXPECT_TRUE(kept.count(q.client) == 1);
  }
}

TEST(CacheSim, WithoutEcsOneEntryPerName) {
  Trace t;
  t.resolvers = 1;
  t.hostnames = 1;
  const auto client1 = dnscore::IpAddress::parse("100.0.1.5");
  const auto client2 = dnscore::IpAddress::parse("100.0.2.5");
  t.clients = {client1, client2};
  // Two clients, same name, within TTL.
  t.queries.push_back({0, 0, client1, 0, 24, 20});
  t.queries.push_back({1 * netsim::kSecond, 0, client2, 0, 24, 20});

  const auto without = simulate_cache(t, CacheSimOptions{false, std::nullopt, std::nullopt});
  EXPECT_EQ(without.per_resolver[0].max_cache_size, 1u);
  EXPECT_EQ(without.per_resolver[0].hits, 1u);

  const auto with = simulate_cache(t, CacheSimOptions{true, std::nullopt, std::nullopt});
  EXPECT_EQ(with.per_resolver[0].max_cache_size, 2u);
  EXPECT_EQ(with.per_resolver[0].hits, 0u);
}

TEST(CacheSim, ScopeZeroIsGlobalEvenWithEcs) {
  Trace t;
  t.resolvers = 1;
  t.hostnames = 1;
  const auto client1 = dnscore::IpAddress::parse("100.0.1.5");
  const auto client2 = dnscore::IpAddress::parse("200.0.2.5");
  t.clients = {client1, client2};
  t.queries.push_back({0, 0, client1, 0, 0, 20});
  t.queries.push_back({1 * netsim::kSecond, 0, client2, 0, 0, 20});
  const auto with = simulate_cache(t, CacheSimOptions{true, std::nullopt, std::nullopt});
  EXPECT_EQ(with.per_resolver[0].hits, 1u);
  EXPECT_EQ(with.per_resolver[0].max_cache_size, 1u);
}

TEST(CacheSim, TtlExpiryCausesRefetch) {
  Trace t;
  t.resolvers = 1;
  t.hostnames = 1;
  const auto client = dnscore::IpAddress::parse("100.0.1.5");
  t.clients = {client};
  t.queries.push_back({0, 0, client, 0, 24, 20});
  t.queries.push_back({30 * netsim::kSecond, 0, client, 0, 24, 20});
  const auto r = simulate_cache(t, CacheSimOptions{true, std::nullopt, std::nullopt});
  EXPECT_EQ(r.per_resolver[0].hits, 0u);
  EXPECT_EQ(r.per_resolver[0].misses, 2u);
  EXPECT_EQ(r.per_resolver[0].max_cache_size, 1u);  // never two live at once
  // TTL override of 60 turns the second query into a hit.
  const auto r60 = simulate_cache(t, CacheSimOptions{true, 60, std::nullopt});
  EXPECT_EQ(r60.per_resolver[0].hits, 1u);
}

TEST(CacheSim, SameSubnetSharesEntry) {
  Trace t;
  t.resolvers = 1;
  t.hostnames = 1;
  t.clients = {dnscore::IpAddress::parse("100.0.1.5"),
               dnscore::IpAddress::parse("100.0.1.99")};
  t.queries.push_back({0, 0, t.clients[0], 0, 24, 20});
  t.queries.push_back({1 * netsim::kSecond, 0, t.clients[1], 0, 24, 20});
  const auto r = simulate_cache(t, CacheSimOptions{true, std::nullopt, std::nullopt});
  EXPECT_EQ(r.per_resolver[0].hits, 1u);
}

TEST(CacheSim, PerResolverIsolation) {
  Trace t;
  t.resolvers = 2;
  t.hostnames = 1;
  const auto client = dnscore::IpAddress::parse("100.0.1.5");
  t.clients = {client};
  t.queries.push_back({0, 0, client, 0, 24, 20});
  t.queries.push_back({1 * netsim::kSecond, 1, client, 0, 24, 20});
  const auto r = simulate_cache(t, CacheSimOptions{true, std::nullopt, std::nullopt});
  // No cross-resolver sharing: both miss.
  EXPECT_EQ(r.total_hits(), 0u);
  EXPECT_EQ(r.per_resolver[0].max_cache_size, 1u);
  EXPECT_EQ(r.per_resolver[1].max_cache_size, 1u);
}

TEST(CacheSim, BlowupFactorsOnRealTrace) {
  const Trace t = generate_public_resolver_cdn_trace(small_cdn_config());
  const auto factors = blowup_factors(t, std::nullopt);
  ASSERT_FALSE(factors.empty());
  for (const double f : factors) {
    EXPECT_GE(f, 1.0);  // ECS can only increase peak cache size
  }
  // With many clients per resolver and /24 scopes, blow-up must be
  // substantial for at least some resolvers.
  EXPECT_GT(*std::max_element(factors.begin(), factors.end()), 2.0);
}

TEST(CacheSim, LongerTtlIncreasesBlowup) {
  auto config = small_cdn_config();
  config.duration = 10 * netsim::kMinute;
  const Trace t = generate_public_resolver_cdn_trace(config);
  const auto f20 = blowup_factors(t, 20);
  const auto f60 = blowup_factors(t, 60);
  const double mean20 =
      std::accumulate(f20.begin(), f20.end(), 0.0) / static_cast<double>(f20.size());
  const double mean60 =
      std::accumulate(f60.begin(), f60.end(), 0.0) / static_cast<double>(f60.size());
  EXPECT_GT(mean60, mean20);  // Figure 1's TTL effect
}

TEST(CacheSim, BoundedCacheEvictsLruPrematurely) {
  Trace t;
  t.resolvers = 1;
  t.hostnames = 3;
  const auto client = dnscore::IpAddress::parse("100.0.1.5");
  t.clients = {client};
  // Three names within one TTL window; capacity 2 forces an eviction of
  // the least recently used (name 0), so its repeat misses.
  t.queries.push_back({0, 0, client, 0, 24, 60});
  t.queries.push_back({1 * netsim::kSecond, 0, client, 1, 24, 60});
  t.queries.push_back({2 * netsim::kSecond, 0, client, 2, 24, 60});
  t.queries.push_back({3 * netsim::kSecond, 0, client, 0, 24, 60});  // evicted
  t.queries.push_back({4 * netsim::kSecond, 0, client, 2, 24, 60});  // still live

  CacheSimOptions options;
  options.with_ecs = true;
  options.max_entries_per_resolver = 2;
  const auto r = simulate_cache(t, options);
  EXPECT_EQ(r.per_resolver[0].premature_evictions, 2u);  // names 0 then 1
  EXPECT_EQ(r.per_resolver[0].hits, 1u);                 // only the name-2 repeat
  EXPECT_LE(r.per_resolver[0].max_cache_size, 2u);

  // Unbounded: everything hits.
  const auto free_run = simulate_cache(t, CacheSimOptions{true, {}, {}});
  EXPECT_EQ(free_run.per_resolver[0].hits, 2u);
  EXPECT_EQ(free_run.per_resolver[0].premature_evictions, 0u);
}

TEST(CacheSim, LruRefreshOnHitProtectsHotEntries) {
  Trace t;
  t.resolvers = 1;
  t.hostnames = 3;
  const auto client = dnscore::IpAddress::parse("100.0.1.5");
  t.clients = {client};
  // Name 0 is re-touched before name 2 arrives, so the LRU victim is 1.
  t.queries.push_back({0, 0, client, 0, 24, 60});
  t.queries.push_back({1 * netsim::kSecond, 0, client, 1, 24, 60});
  t.queries.push_back({2 * netsim::kSecond, 0, client, 0, 24, 60});  // hit: refresh
  t.queries.push_back({3 * netsim::kSecond, 0, client, 2, 24, 60});  // evicts 1
  t.queries.push_back({4 * netsim::kSecond, 0, client, 0, 24, 60});  // still a hit

  CacheSimOptions options;
  options.with_ecs = true;
  options.max_entries_per_resolver = 2;
  const auto r = simulate_cache(t, options);
  EXPECT_EQ(r.per_resolver[0].hits, 2u);  // both name-0 repeats survive
  EXPECT_EQ(r.per_resolver[0].premature_evictions, 1u);
}

TEST(CacheSim, EcsReducesHitRate) {
  AllNamesConfig config;
  config.clients = 400;
  config.client_subnets = 100;
  config.hostnames = 200;
  config.slds = 30;
  config.duration = 10 * netsim::kMinute;
  config.queries_per_second = 60;
  const Trace t = generate_all_names_trace(config);
  const auto with = simulate_cache(t, CacheSimOptions{true, std::nullopt, std::nullopt});
  const auto without = simulate_cache(t, CacheSimOptions{false, std::nullopt, std::nullopt});
  EXPECT_LT(with.overall_hit_rate(), without.overall_hit_rate());
}

using detail::CacheKey;
using detail::CacheKeyHash;
using detail::cache_key_of;

// The unbounded fold as it stood with one priority queue of every pending
// expiration: observe() is that version verbatim. StreamingCacheSim's
// FIFO-first queue must reproduce its rows on every input.
class HeapOnlyCacheSim {
 public:
  HeapOnlyCacheSim(std::uint32_t resolvers, const CacheSimOptions& options)
      : with_ecs_(options.with_ecs),
        ttl_override_(options.ttl_override),
        results_(resolvers),
        live_(resolvers, 0) {
    for (std::uint32_t r = 0; r < resolvers; ++r) results_[r].resolver = r;
  }

  void observe(const TraceQuery& q) {
    ++queries_;
    // Retire everything that expired before this query.
    while (!expirations_.empty() && expirations_.top().when <= q.time) {
      const Expiry e = expirations_.top();
      expirations_.pop();
      const Slot* slot = cache_.find(e.key);
      // Only erase if this expiration is current (the entry may have been
      // refreshed after a miss).
      if (slot != nullptr && slot->expiry <= e.when) {
        --live_[e.key.resolver];
        cache_.erase(e.key);
      }
    }

    const CacheKey key = cache_key_of(q, with_ecs_);

    auto& result = results_.at(q.resolver);
    Slot* found = cache_.find(key);
    if (found != nullptr && found->expiry > q.time) {
      ++result.hits;
      return;
    }
    ++result.misses;
    const std::uint32_t ttl_s = ttl_override_.value_or(q.ttl_s);
    const SimTime expiry = q.time + static_cast<SimTime>(ttl_s) * netsim::kSecond;
    const auto [new_slot, inserted] = cache_.insert_or_assign(key, Slot{expiry});
    (void)new_slot;
    if (inserted) ++live_[q.resolver];
    result.max_cache_size = std::max(result.max_cache_size, live_[q.resolver]);
    expirations_.push(Expiry{expiry, key});
  }

  std::vector<ResolverCacheResult> finish() { return std::move(results_); }

 private:
  struct Slot {
    SimTime expiry = 0;
  };
  struct Expiry {
    SimTime when;
    CacheKey key;
  };
  struct LaterExpiry {
    bool operator()(const Expiry& a, const Expiry& b) const {
      return a.when > b.when;
    }
  };

  bool with_ecs_;
  std::optional<std::uint32_t> ttl_override_;
  dnscore::FlatHashMap<CacheKey, Slot, CacheKeyHash> cache_;
  std::priority_queue<Expiry, std::vector<Expiry>, LaterExpiry> expirations_;
  std::vector<ResolverCacheResult> results_;
  std::vector<std::size_t> live_;
  std::uint64_t queries_ = 0;
};

struct PushCounts {
  std::uint64_t ring = 0;
  std::uint64_t heap = 0;
};

// Folds `queries` through StreamingCacheSim and the heap-only reference and
// asserts identical rows; returns where the StreamingCacheSim pushes went.
PushCounts expect_matches_heap_only(const std::vector<TraceQuery>& queries,
                                    std::uint32_t resolvers,
                                    const CacheSimOptions& options) {
  StreamingCacheSim sim(resolvers, options);
  HeapOnlyCacheSim reference(resolvers, options);
  for (const TraceQuery& q : queries) {
    sim.observe(q);
    reference.observe(q);
  }
  const PushCounts pushes{sim.ring_pushes(), sim.heap_pushes()};
  const auto got = sim.finish().per_resolver;
  const auto want = reference.finish();
  EXPECT_EQ(got.size(), want.size());
  std::uint64_t misses = 0;
  for (std::size_t i = 0; i < std::min(got.size(), want.size()); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(got[i].resolver, want[i].resolver);
    EXPECT_EQ(got[i].max_cache_size, want[i].max_cache_size);
    EXPECT_EQ(got[i].hits, want[i].hits);
    EXPECT_EQ(got[i].misses, want[i].misses);
    EXPECT_EQ(got[i].premature_evictions, want[i].premature_evictions);
    misses += got[i].misses;
  }
  EXPECT_EQ(pushes.ring + pushes.heap, misses);
  return pushes;
}

std::vector<TraceQuery> pull_all(TraceStream& stream) {
  std::vector<TraceQuery> out;
  TraceQuery q;
  while (stream.next(q)) out.push_back(q);
  return out;
}

CacheSimOptions ecs_options(bool with_ecs, std::optional<std::uint32_t> ttl = {}) {
  CacheSimOptions options;
  options.with_ecs = with_ecs;
  options.ttl_override = ttl;
  return options;
}

// One TTL on a time-ordered stream: push order is expiry order, so every
// record takes the ring.
TEST(CacheSimExpiryQueue, ConstantTtlCdnStreamMatchesHeapOnlyFoldOnTheRingAlone) {
  const auto config = small_cdn_config();
  PublicResolverCdnStream stream(config);
  const auto queries = pull_all(stream);
  ASSERT_GT(queries.size(), 1000u);
  for (const bool with_ecs : {true, false}) {
    SCOPED_TRACE(with_ecs);
    const PushCounts pushes =
        expect_matches_heap_only(queries, config.resolvers, ecs_options(with_ecs));
    EXPECT_GT(pushes.ring, 0u);
    EXPECT_EQ(pushes.heap, 0u);
  }
}

// TTLs of 20..300 s on one time-ordered stream: a short-TTL miss after a
// long-TTL one expires earlier than the ring's back and takes the heap.
TEST(CacheSimExpiryQueue, MixedTtlAllNamesStreamMatchesHeapOnlyFold) {
  AllNamesConfig config;
  config.clients = 400;
  config.client_subnets = 100;
  config.hostnames = 300;
  config.slds = 40;
  config.duration = 20 * netsim::kMinute;
  config.queries_per_second = 60;
  config.ecs_zone_fraction = 0.6;
  AllNamesStream stream(config);
  const auto queries = pull_all(stream);
  ASSERT_GT(queries.size(), 10000u);
  for (const bool with_ecs : {true, false}) {
    SCOPED_TRACE(with_ecs);
    const PushCounts pushes =
        expect_matches_heap_only(queries, 1, ecs_options(with_ecs));
    EXPECT_GT(pushes.ring, 0u);
    EXPECT_GT(pushes.heap, 0u);
  }
}

// An unsorted trace: time runs backwards, TTL 0 answers expire at their own
// query time, keys repeat across resolvers and clients, and ttl_override
// replaces every TTL (0 included).
TEST(CacheSimExpiryQueue, UnsortedTtlZeroAndOverrideMatchHeapOnlyFold) {
  const std::array<dnscore::IpAddress, 4> clients = {
      dnscore::IpAddress::parse("100.0.1.5"), dnscore::IpAddress::parse("100.0.1.77"),
      dnscore::IpAddress::parse("100.0.2.5"), dnscore::IpAddress::parse("2001:db8::1")};
  constexpr std::uint32_t kTtls[] = {0, 0, 1, 3, 20};
  std::vector<TraceQuery> queries;
  // Hand-picked: a TTL-0 answer asked twice at one instant, then a query
  // earlier than both.
  queries.push_back({10 * netsim::kSecond, 0, clients[0], 0, 24, 0});
  queries.push_back({10 * netsim::kSecond, 0, clients[0], 0, 24, 0});
  queries.push_back({5 * netsim::kSecond, 0, clients[1], 0, 24, 20});
  queries.push_back({30 * netsim::kSecond, 0, clients[0], 0, 24, 0});
  netsim::Rng rng(17);
  SimTime t = 0;
  for (int i = 0; i < 4000; ++i) {
    // Mostly forward with frequent jumps back of up to 8 s.
    t += static_cast<SimTime>(rng.uniform(2 * netsim::kSecond));
    if (rng.chance(0.3)) t -= static_cast<SimTime>(rng.uniform(8 * netsim::kSecond));
    if (t < 0) t = 0;
    const dnscore::IpAddress& client = clients[rng.uniform(clients.size())];
    queries.push_back({t, static_cast<std::uint32_t>(rng.uniform(3)), client,
                       static_cast<std::uint32_t>(rng.uniform(6)),
                       client.is_v4() ? 24 : 48, kTtls[rng.uniform(std::size(kTtls))]});
  }
  for (const bool with_ecs : {true, false}) {
    for (const std::optional<std::uint32_t> ttl :
         {std::optional<std::uint32_t>{}, std::optional<std::uint32_t>{0},
          std::optional<std::uint32_t>{5}}) {
      SCOPED_TRACE(testing::Message() << "ecs " << with_ecs << " ttl "
                                      << (ttl ? static_cast<int>(*ttl) : -1));
      const PushCounts pushes =
          expect_matches_heap_only(queries, 3, ecs_options(with_ecs, ttl));
      EXPECT_GT(pushes.heap, 0u);
    }
  }
}

}  // namespace
}  // namespace ecsdns::measurement
