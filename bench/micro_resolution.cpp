// Engineering microbenchmarks: end-to-end resolution and scan throughput —
// the numbers that bound how large a fleet the experiment binaries can
// drive per wall-clock second.
#include <benchmark/benchmark.h>

#include "bench_common.h"

#include "authoritative/ecs_policy.h"
#include "measurement/scanner.h"
#include "measurement/testbed.h"

namespace {

using namespace ecsdns;
using dnscore::IpAddress;
using dnscore::Name;

struct Rig {
  measurement::Testbed bed;
  resolver::RecursiveResolver* resolver;
  Name host = Name::from_string("www.example.com");

  Rig() {
    auto& auth = bed.add_auth("auth", Name::from_string("example.com"), "Ashburn",
                              std::make_unique<authoritative::ScopeDeltaPolicy>(0));
    auth.find_zone(Name::from_string("example.com"))
        ->add(dnscore::ResourceRecord::make_a(host, 60,
                                              IpAddress::parse("1.1.1.1")));
    resolver = &bed.add_resolver(resolver::ResolverConfig::correct(), "Chicago");
    bed.network().set_advance_clock(false);  // steady-state: no TTL churn
  }
};

void BM_ResolveCacheHit(benchmark::State& state) {
  Rig rig;
  const auto client = IpAddress::parse("100.64.1.5");
  dnscore::Message q = dnscore::Message::make_query(1, rig.host, dnscore::RRType::A);
  q.opt = dnscore::OptRecord{};
  (void)rig.resolver->handle_client_query(q, client);  // warm the cache
  for (auto _ : state) {
    benchmark::DoNotOptimize(rig.resolver->handle_client_query(q, client));
  }
}
BENCHMARK(BM_ResolveCacheHit);

void BM_ResolveColdPerSubnet(benchmark::State& state) {
  Rig rig;
  dnscore::Message q = dnscore::Message::make_query(1, rig.host, dnscore::RRType::A);
  q.opt = dnscore::OptRecord{};
  // Clients cycle through the 2^16 /24s of 100.0.0.0/8. Each lap starts
  // with an empty answer cache, so every iteration is a miss (the NS cache
  // stays warm after the first) and the cache cannot grow without bound
  // under the frozen clock.
  constexpr std::uint32_t kSubnets = 1u << 16;
  std::uint32_t subnet = 0;
  std::uint64_t allocations = 0;
  for (auto _ : state) {
    if (subnet == kSubnets) {
      state.PauseTiming();
      rig.resolver->cache().clear();
      subnet = 0;
      state.ResumeTiming();
    }
    const auto client = IpAddress::v4((100u << 24) | (subnet++ << 8) | 5u);
    const std::uint64_t before = obs::allocation_count();
    benchmark::DoNotOptimize(rig.resolver->handle_client_query(q, client));
    allocations += obs::allocation_count() - before;
  }
  state.counters["allocs_per_iter"] = benchmark::Counter(
      static_cast<double>(allocations), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_ResolveColdPerSubnet);

void BM_ScanProbe(benchmark::State& state) {
  measurement::Testbed bed;
  measurement::Scanner scanner(bed);
  auto& egress = bed.add_resolver(resolver::ResolverConfig::google_like(), "Miami");
  std::vector<IpAddress> targets;
  for (int i = 0; i < 8; ++i) {
    targets.push_back(
        bed.add_forwarder("Santiago", egress.address()).address());
  }
  bed.network().set_advance_clock(false);
  for (auto _ : state) {
    benchmark::DoNotOptimize(scanner.scan(targets));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 8);
}
BENCHMARK(BM_ScanProbe);

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): the obs flags
// (--metrics-out/--trace-out) are not google-benchmark flags, so they are
// consumed by ObsSession before Initialize() sees argv.
int main(int argc, char** argv) {
  ecsdns::bench::ObsSession obs_session(argc, argv, "micro_resolution");
  std::vector<char*> passthrough;
  for (int i = 0; i < argc; ++i) {
    if (std::strncmp(argv[i], "--metrics-out=", 14) == 0) continue;
    if (std::strncmp(argv[i], "--trace-out=", 12) == 0) continue;
    passthrough.push_back(argv[i]);
  }
  int bench_argc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&bench_argc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, passthrough.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
