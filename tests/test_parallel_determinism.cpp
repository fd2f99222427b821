// The sharded parallel engine and its serial-equivalence oracle.
//
// Two layers of guarantees are exercised here:
//  1. Engine-level determinism: with a fixed shard count, a ParallelEngine
//     run is bit-identical for any thread count and pinning (share-nothing
//     shards, shard-order finish, metrics merging), and a failing shard's
//     exception surfaces the same way at every thread count.
//  2. Program-level serial equivalence: the sharded cache replay produces
//     byte-identical results — full CacheSimResult, exported metrics JSON,
//     and the fig2/fig3-style formatted CSV cells — for ANY shard count,
//     including the serial shards=1 path.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "dnscore/hashing.h"
#include "measurement/cache_sim.h"
#include "measurement/stats.h"
#include "measurement/tracegen.h"
#include "netsim/parallel_engine.h"
#include "obs/export.h"
#include "obs/metrics.h"

namespace ecsdns::measurement {
namespace {

using dnscore::IpAddress;
using netsim::ParallelConfig;
using netsim::ParallelEngine;
using netsim::ShardContext;
using netsim::ShardProgram;
using netsim::SimTime;

// ---------------------------------------------------------------------------
// Engine-level tests

TEST(ParallelEngine, ValidatesConfiguration) {
  ParallelConfig config;
  config.shards = 2;
  std::vector<std::unique_ptr<ShardProgram>> none;
  EXPECT_THROW(ParallelEngine(config, std::move(none)), std::invalid_argument);
}

// A toy program exercising every determinism-relevant engine feature at
// once: shard-distinct results published by finish(), and per-shard
// counter and histogram values merged into one export. The final state
// must not depend on the worker thread count or pinning.
namespace toy {
constexpr std::size_t kShards = 4;

struct Program final : ShardProgram {
  static constexpr int kSteps = 64;
  std::vector<std::uint64_t>* out = nullptr;
  std::uint64_t hash = 0;

  void run(ShardContext& ctx) override {
    // A SplitMix64 walk seeded by the shard index: every shard computes a
    // different sequence, so a result or metric attributed to the wrong
    // shard changes the outcome.
    std::uint64_t x = ctx.index() + 1;
    for (int step = 0; step < kSteps; ++step) {
      x = dnscore::mix64(x);
      hash = hash * 1099511628211ull ^ x;
      ctx.metrics().counter("toy.steps").inc();
      ctx.metrics()
          .counter("toy.shard" + std::to_string(ctx.index()) + ".low_bits")
          .inc(x & 0xff);
      ctx.metrics().histogram("toy.low_byte").observe(x & 0xff);
    }
  }
  void finish(ShardContext& ctx) override { (*out)[ctx.index()] = hash; }
};

std::vector<std::unique_ptr<ShardProgram>> programs(
    std::vector<std::uint64_t>& results) {
  std::vector<std::unique_ptr<ShardProgram>> out;
  for (std::size_t i = 0; i < kShards; ++i) {
    auto p = std::make_unique<Program>();
    p->out = &results;
    out.push_back(std::move(p));
  }
  return out;
}

std::pair<std::vector<std::uint64_t>, std::string> run(
    std::size_t threads, bool pin = false, std::vector<int> pin_cpus = {}) {
  std::vector<std::uint64_t> results(kShards, 0);
  ParallelConfig config;
  config.shards = kShards;
  config.threads = threads;
  config.pin_threads = pin;
  config.pin_cpus = std::move(pin_cpus);
  ParallelEngine engine(config, programs(results));
  engine.run();
  obs::MetricsRegistry merged;
  engine.merge_metrics(merged);
  return {results, obs::metrics_json(merged, "toy", 0.0)};
}
}  // namespace toy

TEST(ParallelEngine, ThreadCountNeverChangesResultsOrMetrics) {
  const auto baseline = toy::run(1);
  // Not vacuous: every shard published its own distinct result, and the
  // export carries each shard's own counter.
  for (std::size_t i = 0; i < toy::kShards; ++i) {
    EXPECT_NE(baseline.first[i], 0u) << "shard " << i;
    for (std::size_t j = 0; j < i; ++j) {
      EXPECT_NE(baseline.first[i], baseline.first[j]) << i << " vs " << j;
    }
    EXPECT_NE(baseline.second.find("toy.shard" + std::to_string(i) + ".low_bits"),
              std::string::npos)
        << baseline.second;
  }
  for (const std::size_t threads : {std::size_t{2}, std::size_t{4}}) {
    const auto got = toy::run(threads);
    EXPECT_EQ(got.first, baseline.first) << "threads=" << threads;
    EXPECT_EQ(got.second, baseline.second) << "threads=" << threads;
  }
}

TEST(ParallelEngine, PinningNeverChangesResultsOrMetrics) {
  // Pinned and unpinned runs at every thread count produce bit-identical
  // results AND metrics exports — whether the pins land (real CPUs) or
  // fall back (affinity denied).
  const auto baseline = toy::run(1);
  for (const bool pinned : {false, true}) {
    for (const std::size_t threads :
         {std::size_t{1}, std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
      const auto got = toy::run(threads, pinned);
      EXPECT_EQ(got.first, baseline.first)
          << "threads=" << threads << " pinned=" << pinned;
      EXPECT_EQ(got.second, baseline.second)
          << "threads=" << threads << " pinned=" << pinned;
    }
  }
}

TEST(ParallelEngine, PinFallbackWarnsOnceAndRunsUnpinned) {
  // pin_cpus={-1} forces every pin attempt to fail regardless of the host:
  // the engine must warn on stderr, report zero pinned workers, and still
  // produce the exact unpinned results and metrics.
  const auto baseline = toy::run(4);
  testing::internal::CaptureStderr();
  const auto got = toy::run(4, /*pin=*/true, /*pin_cpus=*/{-1});
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("continuing unpinned"), std::string::npos) << err;
  // Warn-once: a single warning line, not one per worker.
  EXPECT_EQ(err.find("warning"), err.rfind("warning")) << err;
  EXPECT_EQ(got.first, baseline.first);
  EXPECT_EQ(got.second, baseline.second);
}

TEST(ParallelEngine, RuntimeMetricsAreOptInAndDoNotChangeResults) {
  // Wall-clock counters (engine.shardN.busy_us, engine.barrier_wait_us) are
  // nondeterministic by nature, so they must be absent by default — the
  // byte-identical metrics contract depends on it — and appear only when
  // asked for, without perturbing the results.
  const auto baseline = toy::run(2);
  EXPECT_EQ(baseline.second.find("engine.shard"), std::string::npos);

  std::vector<std::uint64_t> results(toy::kShards, 0);
  ParallelConfig config;
  config.shards = toy::kShards;
  config.threads = 2;
  config.runtime_metrics = true;
  ParallelEngine engine(config, toy::programs(results));
  engine.run();
  EXPECT_EQ(results, baseline.first);
  obs::MetricsRegistry merged;
  engine.merge_metrics(merged);
  const std::string json = obs::metrics_json(merged, "toy", 0.0);
  for (std::size_t i = 0; i < toy::kShards; ++i) {
    EXPECT_NE(json.find("engine.shard" + std::to_string(i) + ".busy_us"),
              std::string::npos)
        << json;
  }
  EXPECT_NE(json.find("engine.barrier_wait_us"), std::string::npos) << json;
}

TEST(ParallelEngine, PinFallbackReportsPinnedWorkerCount) {
  struct Idle final : ShardProgram {
    void run(ShardContext&) override {}
  };
  std::vector<std::unique_ptr<ShardProgram>> programs;
  programs.push_back(std::make_unique<Idle>());
  programs.push_back(std::make_unique<Idle>());
  ParallelConfig config;
  config.shards = 2;
  config.threads = 2;
  config.pin_threads = true;
  config.pin_cpus = {-1};
  ParallelEngine engine(config, std::move(programs));
  testing::internal::CaptureStderr();
  engine.run();
  (void)testing::internal::GetCapturedStderr();
  EXPECT_EQ(engine.pinned_workers(), 0u);
}

namespace failing {
// Shards 1 and 3 throw distinct exceptions; every shard counts its
// finish() calls in one shared tally (finish runs serially).
struct Program final : ShardProgram {
  int* finishes = nullptr;
  void run(ShardContext& ctx) override {
    if (ctx.index() == 1) throw std::runtime_error("shard 1");
    if (ctx.index() == 3) throw std::logic_error("shard 3");
  }
  void finish(ShardContext&) override { ++*finishes; }
};
}  // namespace failing

TEST(ParallelEngine, ProgramExceptionIsRethrownInShardOrder) {
  for (const bool pinned : {false, true}) {
    for (const std::size_t threads :
         {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
      const std::string label =
          "threads=" + std::to_string(threads) + " pinned=" + std::to_string(pinned);
      int finishes = 0;
      std::vector<std::unique_ptr<ShardProgram>> programs;
      for (int i = 0; i < 4; ++i) {
        auto p = std::make_unique<failing::Program>();
        p->finishes = &finishes;
        programs.push_back(std::move(p));
      }
      ParallelConfig config;
      config.shards = 4;
      config.threads = threads;
      config.pin_threads = pinned;
      ParallelEngine engine(config, std::move(programs));
      testing::internal::CaptureStderr();  // a denied pin warns
      try {
        engine.run();
        ADD_FAILURE() << label << ": run() returned normally";
      } catch (const std::runtime_error& e) {
        EXPECT_EQ(std::string(e.what()), "shard 1") << label;
      } catch (const std::exception& e) {
        ADD_FAILURE() << label << ": rethrew " << e.what();
      }
      (void)testing::internal::GetCapturedStderr();
      EXPECT_EQ(finishes, 0) << label;
    }
  }
}

// ---------------------------------------------------------------------------
// The serial-equivalence oracle

Trace small_all_names_trace() {
  AllNamesConfig config;
  config.clients = 400;
  config.client_subnets = 80;
  config.hostnames = 300;
  config.slds = 60;
  config.queries_per_second = 40.0;
  config.duration = 10 * netsim::kMinute;
  return generate_all_names_trace(config);
}

// Twelve resolvers, materialized: a stream that cannot restrict itself, so
// every shard drops its foreign resolvers by filtering. The All-Names trace
// has one resolver, which the replay never splits; the shard-count oracles
// below run on both.
Trace small_cdn_trace() {
  PublicResolverCdnConfig config;
  config.resolvers = 12;
  config.min_clients_per_resolver = 20;
  config.max_clients_per_resolver = 80;
  config.min_qps = 4.0;
  config.max_qps = 30.0;
  config.hostnames = 120;
  config.duration = 2 * netsim::kMinute;
  return generate_public_resolver_cdn_trace(config);
}

CacheSimResult run_sim(const Trace& trace, bool with_ecs,
                       std::optional<std::uint32_t> ttl_override,
                       std::size_t shards, std::size_t threads = 0,
                       bool pin = false) {
  CacheSimOptions options;
  options.with_ecs = with_ecs;
  options.ttl_override = ttl_override;
  options.shards = shards;
  options.threads = threads;
  options.pin_threads = pin;
  return simulate_cache(trace, options);
}

void expect_identical(const CacheSimResult& a, const CacheSimResult& b,
                      const std::string& label) {
  ASSERT_EQ(a.per_resolver.size(), b.per_resolver.size()) << label;
  for (std::size_t i = 0; i < a.per_resolver.size(); ++i) {
    const auto& x = a.per_resolver[i];
    const auto& y = b.per_resolver[i];
    EXPECT_EQ(x.resolver, y.resolver) << label << " resolver " << i;
    EXPECT_EQ(x.max_cache_size, y.max_cache_size) << label << " resolver " << i;
    EXPECT_EQ(x.hits, y.hits) << label << " resolver " << i;
    EXPECT_EQ(x.misses, y.misses) << label << " resolver " << i;
    EXPECT_EQ(x.premature_evictions, y.premature_evictions)
        << label << " resolver " << i;
  }
}

TEST(ParallelDeterminism, CacheReplayMatchesSerialForEveryShardCount) {
  for (const Trace& trace : {small_all_names_trace(), small_cdn_trace()}) {
    ASSERT_GT(trace.queries.size(), 1000u);
    for (const bool with_ecs : {true, false}) {
      const CacheSimResult serial = run_sim(trace, with_ecs, std::nullopt, 1);
      for (const std::size_t shards : {2u, 4u, 8u}) {
        expect_identical(serial, run_sim(trace, with_ecs, std::nullopt, shards),
                         "resolvers=" + std::to_string(trace.resolvers) +
                             " ecs=" + std::to_string(with_ecs) +
                             " shards=" + std::to_string(shards));
      }
    }
  }
}

TEST(ParallelDeterminism, MoreShardsThanResolversMatchesSerial) {
  // Three resolvers on eight shards, from a stream that cannot restrict:
  // the replay runs at most one shard per resolver and still reproduces
  // the serial rows bit for bit.
  PublicResolverCdnConfig config;
  config.resolvers = 3;
  config.min_clients_per_resolver = 20;
  config.max_clients_per_resolver = 80;
  config.min_qps = 4.0;
  config.max_qps = 30.0;
  config.hostnames = 60;
  config.duration = 2 * netsim::kMinute;
  const Trace trace = generate_public_resolver_cdn_trace(config);
  ASSERT_TRUE(scan_trace_info(trace).time_ordered);
  for (const bool with_ecs : {true, false}) {
    expect_identical(run_sim(trace, with_ecs, std::nullopt, 1),
                     run_sim(trace, with_ecs, std::nullopt, 8),
                     "ecs=" + std::to_string(with_ecs));
  }
}

TEST(ParallelDeterminism, CdnTraceBlowupFactorsMatchSerialUnderTtlOverride) {
  const Trace trace = small_cdn_trace();
  for (const std::uint32_t ttl : {20u, 40u, 60u}) {
    // Figure 1's exact pipeline: blow-up factor vectors must match to the
    // last bit (the doubles are quotients of identical integers).
    const auto serial = blowup_factors(trace, ttl, 1);
    const auto sharded = blowup_factors(trace, ttl, 4);
    EXPECT_EQ(serial, sharded) << "ttl=" << ttl;
  }
}

TEST(ParallelDeterminism, RepeatedRunsAndThreadCountsAreIdentical) {
  for (const Trace& trace : {small_all_names_trace(), small_cdn_trace()}) {
    const CacheSimResult first = run_sim(trace, true, std::nullopt, 4);
    expect_identical(first, run_sim(trace, true, std::nullopt, 4), "repeat");
    expect_identical(first, run_sim(trace, true, std::nullopt, 4, 1), "threads=1");
    expect_identical(first, run_sim(trace, true, std::nullopt, 4, 3), "threads=3");
    expect_identical(first, run_sim(trace, true, std::nullopt, 4, 8), "threads=8");
  }
}

TEST(ParallelDeterminism, CacheReplayIdenticalPinnedAndUnpinnedAtEveryThreadCount) {
  // The acceptance matrix on the simulation side: pinned-vs-unpinned across
  // threads 1/2/4/8 replays the same 4-shard partition bit-identically.
  for (const Trace& trace : {small_all_names_trace(), small_cdn_trace()}) {
    const CacheSimResult serial = run_sim(trace, true, std::nullopt, 1);
    for (const bool pin : {false, true}) {
      for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
        expect_identical(serial,
                         run_sim(trace, true, std::nullopt, 4, threads, pin),
                         "resolvers=" + std::to_string(trace.resolvers) +
                             " threads=" + std::to_string(threads) +
                             " pin=" + std::to_string(pin));
      }
    }
  }
}

TEST(ParallelDeterminism, MetricsExportIsByteIdenticalAcrossShardCounts) {
  for (const Trace& trace : {small_all_names_trace(), small_cdn_trace()}) {
    const auto export_for = [&trace](std::size_t shards) {
      auto& registry = obs::MetricsRegistry::global();
      registry.reset();
      (void)run_sim(trace, true, std::nullopt, shards);
      (void)run_sim(trace, false, std::nullopt, shards);
      // Run metadata (wall clock) is outside the contract, so it is pinned;
      // everything the simulation itself produced must match byte for byte.
      return obs::metrics_json(registry, "oracle", 0.0);
    };
    const std::string serial = export_for(1);
    EXPECT_EQ(serial, export_for(2)) << "resolvers=" << trace.resolvers;
    EXPECT_EQ(serial, export_for(8)) << "resolvers=" << trace.resolvers;
  }
}

TEST(ParallelDeterminism, FormattedCsvCellsMatchSerial) {
  for (const Trace& trace : {small_all_names_trace(), small_cdn_trace()}) {
    for (const int pct : {30, 100}) {
      const Trace sampled = sample_clients(trace, pct / 100.0, 101);
      const std::string label = "resolvers=" + std::to_string(trace.resolvers) +
                                " pct=" + std::to_string(pct);
      // fig2-style cell: the first resolver's blow-up at 4 digits.
      const auto serial_factors = blowup_factors(sampled, std::nullopt, 1);
      const auto sharded_factors = blowup_factors(sampled, std::nullopt, 4);
      ASSERT_FALSE(serial_factors.empty());
      ASSERT_FALSE(sharded_factors.empty());
      EXPECT_EQ(TextTable::num(serial_factors.front(), 4),
                TextTable::num(sharded_factors.front(), 4))
          << label;
      // fig3-style cells: hit rates with and without ECS at 3 digits.
      for (const bool with_ecs : {true, false}) {
        const double serial_rate =
            100.0 * run_sim(sampled, with_ecs, std::nullopt, 1).overall_hit_rate();
        const double sharded_rate =
            100.0 * run_sim(sampled, with_ecs, std::nullopt, 8).overall_hit_rate();
        EXPECT_EQ(TextTable::num(serial_rate, 3), TextTable::num(sharded_rate, 3))
            << label << " ecs=" << with_ecs;
      }
    }
  }
}

// Bounded replays partition whole resolvers per shard (an eviction decision
// couples all keys within a resolver), so every policy must reproduce the
// serial result bit for bit at any shard and thread count.
TEST(ParallelDeterminism, BoundedCacheMatchesSerialForEveryPolicyAndShardCount) {
  const Trace trace = small_cdn_trace();
  for (const auto policy : resolver::kAllEvictionPolicies) {
    CacheSimOptions bounded;
    bounded.with_ecs = true;
    bounded.max_entries_per_resolver = 8;
    bounded.policy = policy;
    const CacheSimResult serial = simulate_cache(trace, bounded);
    for (const auto& row : serial.per_resolver) {
      EXPECT_LE(row.max_cache_size, 8u)
          << resolver::to_string(policy) << " resolver " << row.resolver;
    }
    for (const std::size_t shards : {2u, 4u, 8u}) {
      bounded.shards = shards;
      bounded.threads = 0;
      expect_identical(serial, simulate_cache(trace, bounded),
                       resolver::to_string(policy) +
                           " shards=" + std::to_string(shards));
    }
    bounded.shards = 4;
    for (const std::size_t threads : {1u, 3u, 8u}) {
      bounded.threads = threads;
      expect_identical(serial, simulate_cache(trace, bounded),
                       resolver::to_string(policy) +
                           " threads=" + std::to_string(threads));
    }
  }
}

TEST(ParallelDeterminism, BoundedMetricsExportIsByteIdenticalAcrossShardCounts) {
  const Trace trace = small_cdn_trace();
  const auto export_for = [&trace](std::size_t shards) {
    auto& registry = obs::MetricsRegistry::global();
    registry.reset();
    for (const auto policy : resolver::kAllEvictionPolicies) {
      CacheSimOptions bounded;
      bounded.with_ecs = true;
      bounded.max_entries_per_resolver = 6;
      bounded.policy = policy;
      bounded.shards = shards;
      (void)simulate_cache(trace, bounded);
    }
    return obs::metrics_json(registry, "oracle", 0.0);
  };
  const std::string serial = export_for(1);
  EXPECT_EQ(serial, export_for(2));
  EXPECT_EQ(serial, export_for(4));
  EXPECT_EQ(serial, export_for(8));
}

TEST(ParallelDeterminism, ZeroTtlFallsBackToSerialWithEqualResults) {
  // A zero TTL expires an entry at its own insert time. The unbounded fold
  // still counts that insert toward the peak, and each shard runs the same
  // fold on whole resolvers, so the sharded replay needs no serial fallback
  // here: it must match the serial path bit for bit.
  const Trace trace = small_cdn_trace();
  const CacheSimResult serial = run_sim(trace, true, 0u, 1);
  expect_identical(serial, run_sim(trace, true, 0u, 8), "ttl=0");
}

TEST(ParallelDeterminism, UnsortedTraceFallsBackToSerialWithEqualResults) {
  Trace trace;
  trace.resolvers = 2;
  const auto query = [](SimTime t, std::uint32_t resolver, std::uint32_t name,
                        std::uint32_t host) {
    TraceQuery q;
    q.time = t;
    q.resolver = resolver;
    q.name = name;
    q.client = IpAddress::v4((100u << 24) | host);
    q.scope = 24;
    q.ttl_s = 20;
    return q;
  };
  trace.queries = {query(100, 0, 1, 5), query(50, 1, 2, 6), query(60, 0, 1, 5),
                   query(55, 1, 2, 7)};
  const CacheSimResult serial = run_sim(trace, true, std::nullopt, 1);
  expect_identical(serial, run_sim(trace, true, std::nullopt, 4), "unsorted");

  // The bounded replay never needs the sortedness fallback: each shard owns
  // whole resolvers and replays their queries in trace order, so shards=1 and
  // shards=4 run the identical per-resolver code on any trace.
  CacheSimOptions bounded;
  bounded.with_ecs = true;
  bounded.max_entries_per_resolver = 2;
  const CacheSimResult bounded_serial = simulate_cache(trace, bounded);
  bounded.shards = 4;
  expect_identical(bounded_serial, simulate_cache(trace, bounded),
                   "unsorted bounded");
}

}  // namespace
}  // namespace ecsdns::measurement
