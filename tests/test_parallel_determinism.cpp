// The sharded parallel engine and its serial-equivalence oracle.
//
// Two layers of guarantees are exercised here:
//  1. Engine-level determinism: with a fixed seed and shard count, a
//     ParallelEngine run is bit-identical for any thread count (mailbox
//     ordering, RNG stream splitting, metrics merging).
//  2. Program-level serial equivalence: the sharded cache replay produces
//     byte-identical results — full CacheSimResult, exported metrics JSON,
//     and the fig2/fig3-style formatted CSV cells — for ANY shard count,
//     including the serial shards=1 path.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "measurement/cache_sim.h"
#include "measurement/fleet.h"
#include "measurement/sharding.h"
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

TEST(ParallelEngine, ConservativeEpochIsMinimumOneWayLatency) {
  const netsim::LatencyModel model;
  // Two nodes at zero distance still pay the fixed per-direction overhead;
  // no simulated packet crosses shards faster than that.
  EXPECT_EQ(netsim::conservative_epoch(model), model.one_way(0.0));
  EXPECT_GT(netsim::conservative_epoch(model), 0);
}

TEST(ParallelEngine, ValidatesConfiguration) {
  ParallelConfig config;
  config.shards = 2;
  std::vector<std::unique_ptr<ShardProgram>> none;
  EXPECT_THROW(ParallelEngine(config, std::move(none)), std::invalid_argument);
  config.epoch = 0;
  std::vector<std::unique_ptr<ShardProgram>> two;
  struct Idle final : ShardProgram {
    void epoch(ShardContext&, SimTime) override {}
    bool done(const ShardContext&) const override { return true; }
  };
  two.push_back(std::make_unique<Idle>());
  two.push_back(std::make_unique<Idle>());
  EXPECT_THROW(ParallelEngine(config, std::move(two)), std::invalid_argument);
}

namespace mail_order {
struct Program final : ShardProgram {
  std::vector<std::pair<std::size_t, int>>* log = nullptr;
  int epochs = 0;
  void epoch(ShardContext& ctx, SimTime) override {
    if (epochs++ > 0) return;
    for (int m = 0; m < 2; ++m) {
      const std::size_t src = ctx.index();
      ctx.post(0, [src, m, sink = log](ShardContext& receiver) {
        EXPECT_EQ(receiver.index(), 0u);
        sink->push_back({src, m});
      });
    }
  }
  bool done(const ShardContext&) const override { return epochs >= 1; }
};
}  // namespace mail_order

TEST(ParallelEngine, ControlMailDeliversNextEpochInSourceFifoOrder) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
    std::vector<std::pair<std::size_t, int>> log;
    std::vector<std::unique_ptr<ShardProgram>> programs;
    for (int i = 0; i < 3; ++i) {
      auto p = std::make_unique<mail_order::Program>();
      p->log = &log;
      programs.push_back(std::move(p));
    }
    ParallelConfig config;
    config.shards = 3;
    config.threads = threads;
    ParallelEngine engine(config, std::move(programs));
    EXPECT_GE(engine.run(), 2u);  // posting epoch + delivery epoch
    const std::vector<std::pair<std::size_t, int>> want{
        {0, 0}, {0, 1}, {1, 0}, {1, 1}, {2, 0}, {2, 1}};
    EXPECT_EQ(log, want) << "threads=" << threads;
  }
}

namespace timed_mail {
struct Program final : ShardProgram {
  std::vector<Program*>* directory = nullptr;
  SimTime* fired_at = nullptr;
  ShardContext* self = nullptr;
  int epochs = 0;
  void setup(ShardContext& ctx) override { self = &ctx; }
  void epoch(ShardContext& ctx, SimTime epoch_end) override {
    if (epochs++ > 0 || ctx.index() != 0) return;
    // Lands on shard 1's loop one epoch out; the callback must observe the
    // receiver's clock at exactly the requested simulation time.
    const SimTime when = epoch_end + 250;
    auto* sink = fired_at;
    auto* receiver_loop = &(*directory)[1]->self->loop();
    ctx.post_at(1, when, [sink, receiver_loop] { *sink = receiver_loop->now(); });
  }
  bool done(const ShardContext&) const override { return epochs >= 1; }
};
}  // namespace timed_mail

TEST(ParallelEngine, TimedMailRunsAtRequestedTimeOnReceiverLoop) {
  SimTime fired_at = -1;
  std::vector<timed_mail::Program*> directory(2, nullptr);
  std::vector<std::unique_ptr<ShardProgram>> programs;
  for (int i = 0; i < 2; ++i) {
    auto p = std::make_unique<timed_mail::Program>();
    p->fired_at = &fired_at;
    p->directory = &directory;
    directory[static_cast<std::size_t>(i)] = p.get();
    programs.push_back(std::move(p));
  }
  ParallelConfig config;
  config.shards = 2;
  config.epoch = 1000;
  ParallelEngine engine(config, std::move(programs));
  engine.run();
  EXPECT_EQ(fired_at, 1250);
}

namespace bad_mail {
struct BelowBound final : ShardProgram {
  void epoch(ShardContext& ctx, SimTime epoch_end) override {
    if (ctx.index() == 0) ctx.post_at(1, epoch_end - 1, [] {});
  }
  bool done(const ShardContext&) const override { return true; }
};
struct UnknownShard final : ShardProgram {
  void epoch(ShardContext& ctx, SimTime) override {
    ctx.post(99, [](ShardContext&) {});
  }
  bool done(const ShardContext&) const override { return true; }
};
}  // namespace bad_mail

TEST(ParallelEngine, PostAtBelowConservativeBoundThrowsThroughRun) {
  std::vector<std::unique_ptr<ShardProgram>> programs;
  programs.push_back(std::make_unique<bad_mail::BelowBound>());
  programs.push_back(std::make_unique<bad_mail::BelowBound>());
  ParallelConfig config;
  config.shards = 2;
  ParallelEngine engine(config, std::move(programs));
  EXPECT_THROW(engine.run(), std::invalid_argument);
}

TEST(ParallelEngine, PostToUnknownShardThrowsThroughRun) {
  std::vector<std::unique_ptr<ShardProgram>> programs;
  programs.push_back(std::make_unique<bad_mail::UnknownShard>());
  ParallelConfig config;
  config.shards = 1;
  ParallelEngine engine(config, std::move(programs));
  EXPECT_THROW(engine.run(), std::out_of_range);
}

// A toy program exercising every determinism-relevant engine feature at
// once: per-shard RNG streams, control mail, timed mail, and per-shard
// metrics. The final state must not depend on the worker thread count.
namespace toy {
struct Program final : ShardProgram {
  static constexpr int kEpochs = 8;
  std::vector<Program*>* directory = nullptr;
  std::vector<std::uint64_t>* out = nullptr;
  std::uint64_t hash = 0;
  std::uint64_t timed_hits = 0;
  int epochs = 0;

  void epoch(ShardContext& ctx, SimTime epoch_end) override {
    if (epochs >= kEpochs) return;
    ++epochs;
    const std::uint64_t draw = ctx.rng().next_u64();
    hash = hash * 1099511628211ull ^ draw;
    ctx.metrics().counter("toy.epochs").inc();
    ctx.metrics().histogram("toy.draw_low_byte").observe(draw & 0xff);
    const std::size_t to = (ctx.index() + 1) % ctx.shard_count();
    Program* peer = (*directory)[to];
    ctx.post(to, [peer, draw](ShardContext&) {
      peer->hash = peer->hash * 1099511628211ull ^ ~draw;
    });
    ctx.post_at(to, epoch_end + 7, [peer] { ++peer->timed_hits; });
  }
  bool done(const ShardContext&) const override { return epochs >= kEpochs; }
  void finish(ShardContext& ctx) override {
    (*out)[ctx.index()] = hash * 31 + timed_hits;
  }
};

std::pair<std::vector<std::uint64_t>, std::string> run(
    std::size_t threads, bool pin = false, std::vector<int> pin_cpus = {}) {
  constexpr std::size_t kShards = 4;
  std::vector<std::uint64_t> results(kShards, 0);
  std::vector<Program*> directory(kShards, nullptr);
  std::vector<std::unique_ptr<ShardProgram>> programs;
  for (std::size_t i = 0; i < kShards; ++i) {
    auto p = std::make_unique<Program>();
    p->directory = &directory;
    p->out = &results;
    directory[i] = p.get();
    programs.push_back(std::move(p));
  }
  ParallelConfig config;
  config.shards = kShards;
  config.threads = threads;
  config.seed = 99;
  config.pin_threads = pin;
  config.pin_cpus = std::move(pin_cpus);
  ParallelEngine engine(config, std::move(programs));
  engine.run();
  obs::MetricsRegistry merged;
  engine.merge_metrics(merged);
  return {results, obs::metrics_json(merged, "toy", 0.0)};
}
}  // namespace toy

TEST(ParallelEngine, ThreadCountNeverChangesResultsOrMetrics) {
  const auto baseline = toy::run(1);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{4}}) {
    const auto got = toy::run(threads);
    EXPECT_EQ(got.first, baseline.first) << "threads=" << threads;
    EXPECT_EQ(got.second, baseline.second) << "threads=" << threads;
  }
}

TEST(ParallelEngine, PinningNeverChangesResultsOrMetrics) {
  // The core determinism contract of this PR: pinned and unpinned runs at
  // every thread count produce bit-identical results AND metrics exports —
  // whether the pins land (real CPUs) or fall back (affinity denied).
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
  // asked for, without perturbing the simulation results.
  const auto baseline = toy::run(2);
  EXPECT_EQ(baseline.second.find("engine.shard"), std::string::npos);

  constexpr std::size_t kShards = 4;
  std::vector<std::uint64_t> results(kShards, 0);
  std::vector<toy::Program*> directory(kShards, nullptr);
  std::vector<std::unique_ptr<ShardProgram>> programs;
  for (std::size_t i = 0; i < kShards; ++i) {
    auto p = std::make_unique<toy::Program>();
    p->directory = &directory;
    p->out = &results;
    directory[i] = p.get();
    programs.push_back(std::move(p));
  }
  ParallelConfig config;
  config.shards = kShards;
  config.threads = 2;
  config.seed = 99;
  config.runtime_metrics = true;
  ParallelEngine engine(config, std::move(programs));
  engine.run();
  EXPECT_EQ(results, baseline.first);
  obs::MetricsRegistry merged;
  engine.merge_metrics(merged);
  const std::string json = obs::metrics_json(merged, "toy", 0.0);
  for (std::size_t i = 0; i < kShards; ++i) {
    EXPECT_NE(json.find("engine.shard" + std::to_string(i) + ".busy_us"),
              std::string::npos)
        << json;
  }
  EXPECT_NE(json.find("engine.barrier_wait_us"), std::string::npos) << json;
}

TEST(ParallelEngine, PinFallbackReportsPinnedWorkerCount) {
  struct Idle final : ShardProgram {
    void epoch(ShardContext&, SimTime) override {}
    bool done(const ShardContext&) const override { return true; }
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

// ---------------------------------------------------------------------------
// Fleet partitioning

TEST(Sharding, PartitionFleetIsStableDisjointAndComplete) {
  Fleet fleet;
  for (std::uint32_t i = 0; i < 64; ++i) {
    FleetMember m;
    m.address = IpAddress::v4((10u << 24) | (i << 8) | 1u);
    fleet.members.push_back(std::move(m));
  }
  const auto parts = partition_fleet(fleet, 4);
  ASSERT_EQ(parts.size(), 4u);
  std::vector<std::size_t> seen;
  for (std::size_t s = 0; s < parts.size(); ++s) {
    EXPECT_TRUE(std::is_sorted(parts[s].begin(), parts[s].end()));
    for (const std::size_t i : parts[s]) {
      seen.push_back(i);
      // Ownership is a pure function of the member's address.
      EXPECT_EQ(shard_of_address(fleet.members[i].address, 4), s);
    }
  }
  std::sort(seen.begin(), seen.end());
  ASSERT_EQ(seen.size(), fleet.members.size());
  for (std::size_t i = 0; i < seen.size(); ++i) EXPECT_EQ(seen[i], i);
  // Stable across calls, and shards=0/1 degenerate to one group.
  EXPECT_EQ(partition_fleet(fleet, 4), parts);
  EXPECT_EQ(partition_fleet(fleet, 0).size(), 1u);
  EXPECT_EQ(partition_fleet(fleet, 1)[0].size(), fleet.members.size());
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
