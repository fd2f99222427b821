// stream_replay and bounded_replay: the §7 trace-replay pipelines.
//
// stream_replay pulls a PublicResolverCdnStream in chunks and folds every
// chunk into an unbounded StreamingCacheSim and a ClientPrefixCensus, in a
// serial loop the benchmark owns. bounded_replay makes one
// simulate_cache_stream pass per eviction policy over a smaller stream,
// with a per-resolver bound below the no-ECS peak, on 4 shards and 2
// worker threads.
#include <algorithm>
#include <array>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>

#include "measurement/cache_sim.h"
#include "measurement/prefix_census.h"
#include "measurement/trace_stream.h"
#include "obs/metrics.h"
#include "workloads.h"

namespace perfbench {

using namespace ecsdns;
using measurement::CacheSimOptions;
using measurement::CacheSimResult;
using measurement::PublicResolverCdnConfig;
using measurement::PublicResolverCdnStream;
using measurement::TraceQuery;
using resolver::EvictionPolicy;

namespace {

constexpr std::size_t kChunk = 4096;
// Nominal work rates on the reference machine (4 vCPU VM), which size the
// fixed work of an untraced window from --seconds: chunks of kChunk stream
// queries, and rounds of one bounded pass per policy.
constexpr double kChunksPerSecond = 130;
constexpr double kRoundsPerSecond = 3.5;
// Timed windows of an untraced stream_replay process, all after one
// set-up.
constexpr int kStreamWindows = 20;

// The fig1 / scale_streaming shape: a wide fleet, Zipf hostnames, /24,
// /16 and /8 scopes, 20 s TTL. Four simulated hours never run dry within a
// 60 s window.
PublicResolverCdnConfig stream_config(std::uint64_t seed) {
  PublicResolverCdnConfig config;
  config.resolvers = 100000;
  config.min_clients_per_resolver = 2;
  config.max_clients_per_resolver = 64;
  config.min_qps = 0.02;
  config.max_qps = 0.5;
  config.hostnames = 1000;
  config.duration = 4 * netsim::kHour;
  config.seed = seed;
  return config;
}

// Narrower and busier: every resolver sees enough names for a bound to
// bite. One pass replays the whole stream.
PublicResolverCdnConfig bounded_config(std::uint64_t seed) {
  PublicResolverCdnConfig config;
  config.resolvers = 500;
  config.min_clients_per_resolver = 20;
  config.max_clients_per_resolver = 400;
  config.min_qps = 1.0;
  config.max_qps = 20.0;
  config.hostnames = 1000;
  config.duration = 30 * netsim::kSecond;
  config.seed = seed;
  return config;
}

// Small stream for the serial-vs-sharded digest oracle.
PublicResolverCdnConfig oracle_config(std::uint64_t seed) {
  PublicResolverCdnConfig config = bounded_config(seed);
  config.resolvers = 200;
  config.duration = 20 * netsim::kSecond;
  return config;
}

constexpr std::array<EvictionPolicy, 4> kPolicies = {
    EvictionPolicy::kLru, EvictionPolicy::kLfu, EvictionPolicy::kSieve,
    EvictionPolicy::kScopeAware};

const char* policy_name(EvictionPolicy policy) {
  switch (policy) {
    case EvictionPolicy::kLru: return "lru";
    case EvictionPolicy::kLfu: return "lfu";
    case EvictionPolicy::kSieve: return "sieve";
    case EvictionPolicy::kScopeAware: return "scope";
  }
  return "?";
}

std::uint64_t total_queries(const CacheSimResult& result) {
  return result.total_hits() + result.total_misses();
}

// The sampled digest of a sharded replay (4 shards, 2 threads) must equal
// the serial replay's: the unbounded serial reference is the
// StreamingCacheSim fold itself, the bounded one simulate_cache_stream on
// one shard. Runs outside every timed window.
void digest_oracle(std::uint64_t seed, std::optional<std::size_t> bound,
                   EvictionPolicy policy, bool corrupt, Result& result) {
  const auto config = oracle_config(seed);
  CacheSimOptions serial;
  serial.max_entries_per_resolver = bound;
  serial.policy = policy;
  CacheSimResult reference;
  if (bound) {
    reference = measurement::simulate_cache_stream(
        measurement::cdn_stream_factory(config), serial);
  } else {
    PublicResolverCdnStream stream(config);
    measurement::StreamingCacheSim sim(config.resolvers, serial);
    TraceQuery q;
    while (stream.next(q)) sim.observe(q);
    reference = sim.finish();
  }
  CacheSimOptions sharded = serial;
  sharded.shards = 4;
  sharded.threads = 2;
  const auto parallel = measurement::simulate_cache_stream(
      measurement::cdn_stream_factory(config), sharded);
  const std::uint64_t want = measurement::sampled_result_digest(reference, 64, seed);
  std::uint64_t got = measurement::sampled_result_digest(parallel, 64, seed);
  if (corrupt) got ^= 1;
  result.check(got == want, std::string("sampled digest of the sharded ") +
                                (bound ? policy_name(policy) : "unbounded") +
                                " replay differs from the serial replay");
}

// ---- stream_replay -------------------------------------------------------

struct StreamReplay {
  std::unique_ptr<PublicResolverCdnStream> stream;
  std::unique_ptr<measurement::StreamingCacheSim> sim;
  std::unique_ptr<measurement::ClientPrefixCensus> census;
  std::vector<TraceQuery> chunk = std::vector<TraceQuery>(kChunk);
  std::uint64_t pulled = 0;
  std::size_t peak_live = 0;
  double build_s = 0;

  std::size_t pull() {
    std::size_t n = 0;
    while (n < chunk.size() && stream->next(chunk[n])) ++n;
    pulled += n;
    return n;
  }
  void observe(std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) sim->observe(chunk[i]);
  }
  void census_observe(std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) census->observe(chunk[i]);
  }
  void note_peak() { peak_live = std::max(peak_live, sim->live_entries()); }
};

// Builds the stream and both folds, then warms up past one TTL of
// simulated time so the cache holds its steady-state population.
void build_stream_replay(const PublicResolverCdnConfig& config, StreamReplay& out) {
  out = StreamReplay{};
  const std::int64_t t0 = now_ns();
  out.stream = std::make_unique<PublicResolverCdnStream>(config);
  out.build_s = static_cast<double>(now_ns() - t0) * 1e-9;
  out.sim = std::make_unique<measurement::StreamingCacheSim>(config.resolvers,
                                                             CacheSimOptions{});
  out.census = std::make_unique<measurement::ClientPrefixCensus>(config.resolvers);
  const netsim::SimTime warm_until = 2 * static_cast<netsim::SimTime>(config.ttl_s) *
                                     netsim::kSecond;
  for (;;) {
    const std::size_t n = out.pull();
    out.observe(n);
    out.census_observe(n);
    out.note_peak();
    if (n < kChunk || out.chunk[n - 1].time >= warm_until) break;
  }
}

struct ChunkWindow {
  std::uint64_t queries = 0;
  double wall_s = 0, cpu_s = 0;
  std::uint64_t allocs = 0;
  bool exhausted = false;
  Samples chunk_us;
};

ChunkWindow run_untraced(StreamReplay& rep, const Budget& budget) {
  ChunkWindow w;
  w.chunk_us.reserve(1 << 16);
  const std::uint64_t before = rep.pulled;
  Window window;
  for (std::uint64_t chunks = 0; budget.more(chunks); ++chunks) {
    const std::int64_t t0 = now_ns();
    const std::size_t n = rep.pull();
    rep.observe(n);
    rep.census_observe(n);
    rep.note_peak();
    w.chunk_us.add(static_cast<double>(now_ns() - t0) * 1e-3);
    if (n < kChunk) {
      w.exhausted = true;
      break;
    }
  }
  w.wall_s = window.wall_s();
  w.cpu_s = window.cpu_s();
  w.allocs = window.allocs();
  w.queries = rep.pulled - before;
  return w;
}

}  // namespace

void stream_replay(const Options& options, Result& result) {
  const auto config = stream_config(options.seed);
  StreamReplay rep;
  if (!options.trace) {
    // One set-up (about a second) and then kStreamWindows windows down the
    // same stream.
    std::vector<EndToEnd> windows;
    const double setup_s = timed_setups(1, [&] { build_stream_replay(config, rep); });
    for (int k = 0; k < kStreamWindows; ++k) {
      EndToEnd e;
      if (k == 0) e.setup_s = setup_s;
      const ChunkWindow w = run_untraced(
          rep, Budget::work(options.seconds / kStreamWindows, kChunksPerSecond));
      result.check(!w.exhausted, "trace stream ran dry inside the timed window");
      e.throughput_qps = static_cast<double>(w.queries) / w.wall_s;
      e.cpu_ns_per_query = w.cpu_s * 1e9 / static_cast<double>(w.queries);
      e.latency_us = w.chunk_us;
      e.queries = w.queries;
      e.allocs = w.allocs;
      windows.push_back(e);
    }
    const CacheSimResult sim_result = rep.sim->finish();
    result.check(total_queries(sim_result) == rep.pulled,
                 "hits + misses (" + std::to_string(total_queries(sim_result)) +
                     ") differs from the queries pulled (" + std::to_string(rep.pulled) +
                     ")");
    result.count(rep.pulled);
    report_end_to_end(windows, "replay_qps", "one chunk of 4096 queries pulled and folded",
                      result);
    digest_oracle(options.seed, std::nullopt, EvictionPolicy::kLru, options.corrupt, result);
    return;
  }

  build_stream_replay(config, rep);
  const ChunkWindow w = run_untraced(rep, Budget::time(options.seconds / 2));
  result.check(!w.exhausted, "trace stream ran dry inside the timed window");
  const double qps = static_cast<double>(w.queries) / w.wall_s;
  Tracer tracer;
  const auto batch = tracer.intern("replay.batch");
  const auto next = tracer.intern("trace_stream.next");
  const auto observe = tracer.intern("cache_sim.observe");
  const auto census = tracer.intern("prefix_census.observe");
  const auto finish = tracer.intern("cache_sim.finish");
  std::uint64_t sim_allocs = 0;
  const std::uint64_t before = rep.pulled;
  bool exhausted = false;
  Window window;
  const std::int64_t end = now_ns() + static_cast<std::int64_t>(options.seconds / 2 * 1e9);
  for (std::uint64_t request = 1; now_ns() < end; ++request) {
    Scope b(tracer, batch, Tracer::kNoParent, request);
    std::size_t n = 0;
    {
      Scope s(tracer, next, b.id(), request);
      n = rep.pull();
      s.set_ops(n);
    }
    {
      Scope s(tracer, observe, b.id(), request);
      const std::uint64_t a0 = allocations();
      rep.observe(n);
      sim_allocs += allocations() - a0;
      s.set_ops(n);
    }
    {
      Scope s(tracer, census, b.id(), request);
      rep.census_observe(n);
      s.set_ops(n);
    }
    rep.note_peak();
    b.set_ops(n);
    if (n < kChunk) {
      exhausted = true;
      break;
    }
  }
  const double traced_wall = window.wall_s();
  result.check(!exhausted, "trace stream ran dry inside the traced window");
  const std::uint64_t traced_queries = rep.pulled - before;
  result.traced_wall_ms = traced_wall * 1e3;

  auto per_op = [&](const char* name) {
    return tracer.total_ns(name) / static_cast<double>(tracer.total_ops(name));
  };
  add(result.layer, "trace_stream.next_ns", per_op("trace_stream.next"), "ns",
      std::to_string(tracer.total_ops("trace_stream.next")) + " queries in batches of " +
          std::to_string(kChunk));
  add(result.layer, "prefix_census.observe_ns", per_op("prefix_census.observe"), "ns");
  add(result.layer, "cache_sim.observe_ns", per_op("cache_sim.observe"), "ns");
  add(result.layer, "trace_stream.build_s", rep.build_s, "s",
      std::to_string(config.resolvers) + " resolvers");
  add(result.layer, "cache_sim.peak_live_entries", static_cast<double>(rep.peak_live),
      "count", "sampled once per chunk");
  add(result.layer, "cache_sim.allocs_per_query",
      static_cast<double>(sim_allocs) / static_cast<double>(traced_queries), "count",
      std::to_string(sim_allocs) + " allocations / " +
          std::to_string(traced_queries) + " queries");
  report_overhead(qps, static_cast<double>(traced_queries) / traced_wall,
                  "replay_qps", result);
  add(result.layer, "run.allocs_per_query",
      static_cast<double>(w.allocs) / static_cast<double>(w.queries), "count",
      "untraced window");

  CacheSimResult sim_result;
  {
    Scope s(tracer, finish);
    sim_result = rep.sim->finish();
  }
  add(result.layer, "cache_sim.finish_ms", tracer.total_ns("cache_sim.finish") * 1e-6,
      "ms");
  add(result.layer, "cache_sim.hit_ratio", sim_result.overall_hit_rate(), "ratio",
      std::to_string(sim_result.total_hits()) + " hits / " +
          std::to_string(total_queries(sim_result)) + " queries");
  result.check(total_queries(sim_result) == rep.pulled,
               "hits + misses differs from the queries pulled");
  result.layer_table = tracer.layers();
  tracer.write_json(options.trace_dir + "/stream_replay-seed" +
                        std::to_string(options.seed) + ".json",
                    "stream_replay");
  result.count(rep.pulled);
  digest_oracle(options.seed, std::nullopt, EvictionPolicy::kLru, options.corrupt, result);
}

// ---- bounded_replay ------------------------------------------------------

namespace {

struct Bounded {
  PublicResolverCdnConfig config;
  std::size_t bound = 0;
  std::uint64_t queries_per_pass = 0;
};

struct Pass {
  CacheSimResult result;
  double wall_ms = 0;
  std::uint64_t allocs = 0;
};

Pass run_pass(const Bounded& b, EvictionPolicy policy, bool runtime_metrics) {
  CacheSimOptions options;
  options.max_entries_per_resolver = b.bound;
  options.policy = policy;
  options.shards = 4;
  options.threads = 2;
  options.runtime_metrics = runtime_metrics;
  Pass pass;
  const std::uint64_t a0 = allocations();
  const std::int64_t t0 = now_ns();
  pass.result = measurement::simulate_cache_stream(
      measurement::cdn_stream_factory(b.config), options);
  pass.wall_ms = static_cast<double>(now_ns() - t0) * 1e-6;
  pass.allocs = allocations() - a0;
  return pass;
}

void check_pass(const Bounded& b, const Pass& pass, EvictionPolicy policy,
                Result& result) {
  const std::uint64_t queries = total_queries(pass.result);
  result.count(queries);
  result.check(queries == b.queries_per_pass,
               std::string(policy_name(policy)) + " pass replayed " +
                   std::to_string(queries) + " queries, expected " +
                   std::to_string(b.queries_per_pass));
  std::uint64_t over = 0;
  for (const auto& row : pass.result.per_resolver) {
    if (row.max_cache_size > b.bound) ++over;
  }
  result.check(over == 0, std::string(policy_name(policy)) + ": " +
                              std::to_string(over) +
                              " resolvers exceeded the per-resolver bound");
}

// Derives the bound from a serial no-ECS pass (half the median per-resolver
// no-ECS peak) and warms up with one bounded pass.
void build_bounded(std::uint64_t seed, Bounded& out) {
  out.config = bounded_config(seed);
  PublicResolverCdnStream stream(out.config);
  CacheSimOptions no_ecs;
  no_ecs.with_ecs = false;
  measurement::StreamingCacheSim sim(out.config.resolvers, no_ecs);
  TraceQuery q;
  while (stream.next(q)) sim.observe(q);
  const CacheSimResult peaks = sim.finish();
  std::vector<double> sizes;
  for (const auto& row : peaks.per_resolver) {
    sizes.push_back(static_cast<double>(row.max_cache_size));
  }
  out.bound = std::max<std::size_t>(2, static_cast<std::size_t>(median(sizes) / 2));
  out.queries_per_pass = total_queries(peaks);
  run_pass(out, EvictionPolicy::kLru, false);
}

}  // namespace

void bounded_replay(const Options& options, Result& result) {
  Bounded b;
  std::array<Samples, 4> pass_ms;
  std::array<std::uint64_t, 4> allocs{}, queries{}, evictions{};
  Samples all_pass_us;
  auto run_window = [&](const Budget& budget, bool runtime_metrics, Tracer* tracer) {
    Window window;
    std::uint64_t done = 0;
    for (std::uint64_t round = 0; budget.more(round); ++round) {
      for (std::size_t p = 0; p < kPolicies.size(); ++p) {
        std::optional<Scope> span;
        if (tracer != nullptr) {
          span.emplace(*tracer, tracer->intern("cache_sim.simulate_cache_stream"),
                       Tracer::kNoParent, p);
        }
        const Pass pass = run_pass(b, kPolicies[p], runtime_metrics);
        if (span) span->set_ops(total_queries(pass.result));
        span.reset();
        check_pass(b, pass, kPolicies[p], result);
        pass_ms[p].add(pass.wall_ms);
        all_pass_us.add(pass.wall_ms * 1e3);
        allocs[p] += pass.allocs;
        queries[p] += total_queries(pass.result);
        std::uint64_t premature = 0;
        for (const auto& row : pass.result.per_resolver) {
          premature += row.premature_evictions;
        }
        evictions[p] = premature;
        done += total_queries(pass.result);
      }
    }
    struct Out {
      std::uint64_t queries;
      double wall_s, cpu_s;
      std::uint64_t allocs;
    };
    return Out{done, window.wall_s(), window.cpu_s(), window.allocs()};
  };

  if (!options.trace) {
    std::vector<EndToEnd> windows;
    for (int k = 0; k < kSegments; ++k) {
      EndToEnd e;
      e.setup_s = timed_setups(1, [&] { build_bounded(options.seed, b); });
      all_pass_us.clear();
      const auto w = run_window(
          Budget::work(options.seconds / kSegments, kRoundsPerSecond), false,
          nullptr);
      e.throughput_qps = static_cast<double>(w.queries) / w.wall_s;
      e.cpu_ns_per_query = w.cpu_s * 1e9 / static_cast<double>(w.queries);
      e.latency_us = all_pass_us;
      e.queries = w.queries;
      e.allocs = w.allocs;
      windows.push_back(e);
    }
    report_end_to_end(windows, "replay_qps",
                      "one simulate_cache_stream pass of " +
                          std::to_string(b.queries_per_pass) + " queries",
                      result);
    add(result.extra, "bound_per_resolver", static_cast<double>(b.bound), "entries",
        "half the median no-ECS peak");
  } else {
    build_bounded(options.seed, b);
    const auto w = run_window(Budget::time(options.seconds / 2), false, nullptr);
    const double qps = static_cast<double>(w.queries) / w.wall_s;
    for (auto& s : pass_ms) s.clear();
    allocs.fill(0);
    queries.fill(0);
    auto& registry = obs::MetricsRegistry::global();
    registry.reset();
    Tracer tracer;
    const auto t = run_window(Budget::time(options.seconds / 2), true, &tracer);
    result.traced_wall_ms = t.wall_s * 1e3;
    report_overhead(qps, static_cast<double>(t.queries) / t.wall_s, "replay_qps",
                    result);
    add(result.layer, "run.allocs_per_query",
        static_cast<double>(w.allocs) / static_cast<double>(w.queries), "count",
        "untraced window");
    for (std::size_t p = 0; p < kPolicies.size(); ++p) {
      const std::string name = policy_name(kPolicies[p]);
      add(result.layer, "cache_sim.bounded_ms." + name, pass_ms[p].quantile(0.5), "ms",
          "median of " + std::to_string(pass_ms[p].size()) + " passes of " +
              std::to_string(b.queries_per_pass) + " queries");
      add(result.layer, "cache_sim.bounded_allocs_per_query." + name,
          static_cast<double>(allocs[p]) / static_cast<double>(queries[p]), "count",
          std::to_string(allocs[p]) + " allocations / " + std::to_string(queries[p]) +
              " queries");
      add(result.layer, "cache_sim.premature_evictions." + name,
          static_cast<double>(evictions[p]), "count",
          "one pass, bound " + std::to_string(b.bound) + " entries per resolver");
    }
    // The engine's runtime metrics: per-shard busy time and the per-worker
    // barrier-wait histogram (log2 buckets, so percentiles read as bucket
    // upper bounds).
    std::vector<double> busy;
    for (const auto& [name, value] : registry.counters()) {
      if (name.rfind("engine.shard", 0) == 0 && name.size() > 8 &&
          name.compare(name.size() - 8, 8, ".busy_us") == 0) {
        busy.push_back(static_cast<double>(value));
      }
    }
    double busy_max = 0, busy_sum = 0;
    for (const double v : busy) {
      busy_max = std::max(busy_max, v);
      busy_sum += v;
    }
    const double busy_mean = busy.empty() ? 0 : busy_sum / static_cast<double>(busy.size());
    add(result.layer, "parallel_engine.busy_imbalance",
        busy_mean > 0 ? busy_max / busy_mean : 0, "ratio",
        "max shard busy / mean shard busy over " + std::to_string(busy.size()) +
            " shards");
    const obs::Histogram* wait = nullptr;
    for (const auto& [name, histogram] : registry.histograms()) {
      if (name == "engine.barrier_wait_us") wait = histogram;
    }
    const std::string waits =
        std::to_string(wait ? wait->count() : 0) + " barrier waits, log2 buckets";
    add(result.layer, "parallel_engine.barrier_wait_us.p50",
        wait ? static_cast<double>(wait->percentile(0.5)) : 0, "us", waits);
    add(result.layer, "parallel_engine.barrier_wait_us.p99",
        wait ? static_cast<double>(wait->percentile(0.99)) : 0, "us", waits);
    result.layer_table = tracer.layers();
    tracer.write_json(options.trace_dir + "/bounded_replay-seed" +
                          std::to_string(options.seed) + ".json",
                      "bounded_replay");
  }
  for (const EvictionPolicy policy : kPolicies) {
    digest_oracle(options.seed, b.bound, policy, options.corrupt, result);
  }
}

}  // namespace perfbench
