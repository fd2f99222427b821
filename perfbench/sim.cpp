// sim_resolve: client queries through the simulated resolver fleet.
//
// A Testbed holds the Table 1 CDN-dataset fleet (behaviour mix including
// the IPv6 members) in front of a CDN authoritative that tailors answers
// per /24, plus the scan-dataset fleet. The benchmark generates Poisson
// client arrivals, schedules them on the netsim event loop, and each one
// calls RecursiveResolver::handle_client_query. The run ends with one
// Scanner::scan over the scan fleet's forwarders.
//
// The traffic is the client workload of the Table 1 CDN column
// (bench/table1_source_prefix_census.cpp): six hostnames with a 20 s TTL,
// the fleet at a quarter of the paper's size, and measurement::drive_fleet's
// per-resolver Poisson stream with that pipeline's WorkloadOptions (3 min
// mean gap per resolver, 4 clients per resolver, Zipf 0.8 names, 30% of
// queries repeated by the same client 5 s later). Only the arrival schedule
// is the benchmark's own: one merged Poisson stream over all resolvers,
// which has the same distribution as drive_fleet's per-resolver streams,
// cut into epochs so the benchmark can time each call.
#include <array>
#include <memory>
#include <optional>
#include <string>

#include "authoritative/ecs_policy.h"
#include "measurement/fleet.h"
#include "measurement/scanner.h"
#include "measurement/testbed.h"
#include "measurement/workload.h"
#include "netsim/rng.h"
#include "workloads.h"

namespace perfbench {

using namespace ecsdns;
using dnscore::IpAddress;
using dnscore::Message;
using dnscore::Name;
using dnscore::RCode;

namespace {

// Table 1's CDN column: hostnames h0..h5 with a 20 s TTL, cdn-scale 4.
constexpr int kHostnames = 6;  // within the 6 name bits of the packed event word
constexpr std::uint32_t kTtl = 20;
constexpr int kFleetScale = 4;
// Its client workload: WorkloadOptions defaults with a 3 min mean gap.
measurement::WorkloadOptions table1_traffic() {
  measurement::WorkloadOptions wl;
  wl.mean_query_gap = 3 * netsim::kMinute;
  return wl;
}
// The simulated length of one batch of arrivals run to completion.
constexpr netsim::SimTime kEpoch = 10 * netsim::kMinute;
// Nominal epochs per wall second on the reference machine (4 vCPU VM); it
// sizes the fixed work of an untraced window from --seconds.
constexpr double kEpochsPerSecond = 30;
// An untraced process sets up kSimSetups times and times
// kSimWindowsPerSetup windows after each set-up.
constexpr int kSimSetups = 4;
constexpr int kSimWindowsPerSetup = 5;

struct Member {
  resolver::RecursiveResolver* resolver;
  std::vector<IpAddress> clients;
};

struct SimBed {
  std::unique_ptr<measurement::Testbed> bed;
  std::unique_ptr<measurement::Scanner> scanner;
  measurement::Fleet cdn_fleet;
  measurement::Fleet scan_fleet;
  std::vector<Member> members;
  std::vector<Message> queries;  // one prebuilt client query per hostname
  std::vector<IpAddress> scan_targets;
  std::unique_ptr<netsim::ZipfSampler> names;
  measurement::WorkloadOptions traffic = table1_traffic();
  netsim::Rng rng{1};
};

// drive_fleet's client layout: a /24 of 120.0.0.0/8 per v4 resolver, a /64
// apiece under 2001:db8::/32 for v6 populations. drive_fleet builds it
// inline and does not export it, so it is restated here.
std::vector<IpAddress> clients_of(std::size_t m, bool v6, int count) {
  std::vector<IpAddress> clients;
  for (int c = 0; c < count; ++c) {
    if (v6) {
      std::array<std::uint8_t, 16> bytes{};
      bytes[0] = 0x20;
      bytes[1] = 0x01;
      bytes[2] = 0x0d;
      bytes[3] = 0xb8;
      bytes[4] = static_cast<std::uint8_t>(m >> 8);
      bytes[5] = static_cast<std::uint8_t>(m & 0xff);
      bytes[6] = static_cast<std::uint8_t>(c);
      bytes[15] = 0x42;
      clients.push_back(IpAddress::v6(bytes));
    } else {
      clients.push_back(IpAddress::v4(
          (120u << 24) | ((static_cast<std::uint32_t>(m) >> 8) << 16) |
          ((static_cast<std::uint32_t>(m) & 0xff) << 8) |
          static_cast<std::uint32_t>(c + 0x20)));
    }
  }
  return clients;
}

// One batch of Poisson arrivals scheduled on the loop and run to
// completion; `on_query` wraps each handle_client_query call.
template <typename OnQuery>
std::uint64_t run_epoch(SimBed& sb, OnQuery&& on_query) {
  auto& loop = sb.bed->network().loop();
  const netsim::SimTime start = loop.now();
  const netsim::SimTime end = start + kEpoch;
  // Every resolver sends one query per mean_query_gap on average.
  const double mean_gap = static_cast<double>(sb.traffic.mean_query_gap) /
                          static_cast<double>(sb.members.size());
  std::uint64_t scheduled = 0;
  double t = static_cast<double>(start);
  for (;;) {
    t += sb.rng.exponential(mean_gap);
    const auto when = static_cast<netsim::SimTime>(t);
    if (when >= end) break;
    // Packed into one word so the event's closure fits std::function's
    // inline storage and scheduling does not allocate.
    const auto member = static_cast<std::uint32_t>(sb.rng.uniform(sb.members.size()));
    const auto client = static_cast<std::uint32_t>(
        sb.rng.uniform(static_cast<std::uint64_t>(sb.traffic.clients_per_resolver)));
    const auto name = static_cast<std::uint32_t>(sb.names->sample(sb.rng));
    const std::uint32_t packed = member << 8 | client << 6 | name;
    auto fire = [&on_query, packed] {
      on_query(packed >> 8, (packed >> 6) & 3u, packed & 63u);
    };
    loop.schedule_at(when, fire);
    ++scheduled;
    // The same client repeats the query burst_gap later; as in drive_fleet,
    // a repeat that would fall past the end of the run (here, the epoch)
    // is not sent.
    const netsim::SimTime repeat_at = when + sb.traffic.burst_gap;
    if (sb.rng.chance(sb.traffic.burst_probability) && repeat_at < end) {
      loop.schedule_at(repeat_at, fire);
      ++scheduled;
    }
  }
  loop.run_until(end);
  // The benchmark consumes the authoritative query logs (the passive
  // datasets) once per batch, so their memory does not grow with run time.
  for (const auto& auth : sb.bed->auth_servers()) auth->clear_log();
  sb.bed->root_server().clear_log();
  return scheduled;
}

void build_sim(std::uint64_t seed, SimBed& sb) {
  sb.scanner.reset();  // refers to the old testbed
  sb = SimBed{};
  sb.bed = std::make_unique<measurement::Testbed>();
  auto& bed = *sb.bed;
  const Name zone = Name::from_string("cdn.example");
  auto& cdn = bed.add_auth("cdn", zone, "Ashburn",
                           std::make_unique<authoritative::FixedScopePolicy>(24));
  std::vector<Name> hostnames;
  for (int i = 0; i < kHostnames; ++i) {
    const Name host = zone.prepend("h" + std::to_string(i));
    cdn.find_zone(zone)->add(dnscore::ResourceRecord::make_a(
        host, kTtl, IpAddress::v4(203, 0, 113, static_cast<std::uint8_t>(i))));
    hostnames.push_back(host);
    sb.queries.push_back(Message::make_query(
        static_cast<std::uint16_t>(i + 1), host, dnscore::RRType::A));
  }
  // The fleets are the system under test and keep their calibrated default
  // seeds; the benchmark seed drives the client traffic.
  measurement::CdnFleetOptions cdn_options;
  cdn_options.scale = kFleetScale;
  cdn_options.probe_names = {hostnames[0], hostnames[1]};
  sb.cdn_fleet = measurement::build_cdn_dataset_fleet(bed, cdn_options);

  sb.scanner = std::make_unique<measurement::Scanner>(bed);
  measurement::ScanFleetOptions scan_options;
  scan_options.scale = kFleetScale;
  sb.scan_fleet = measurement::build_scan_dataset_fleet(bed, scan_options);
  for (const auto& m : sb.scan_fleet.members) {
    for (const auto* f : m.forwarders) sb.scan_targets.push_back(f->address());
  }

  for (std::size_t m = 0; m < sb.cdn_fleet.members.size(); ++m) {
    const auto& member = sb.cdn_fleet.members[m];
    sb.members.push_back(Member{
        member.resolver,
        clients_of(m, member.v6_clients, sb.traffic.clients_per_resolver)});
  }
  sb.names = std::make_unique<netsim::ZipfSampler>(kHostnames, sb.traffic.zipf_exponent);
  sb.rng = netsim::Rng::stream(seed, 0x51);
  // Thousands of resolvers act concurrently off the loop; their round trips
  // overlap instead of advancing the shared clock.
  bed.network().set_advance_clock(false);
  // Warm-up: one epoch fills the NS caches and the first answers.
  run_epoch(sb, [&sb](std::uint32_t member, std::uint32_t client, std::uint32_t name) {
    auto& m = sb.members[member];
    (void)m.resolver->handle_client_query(sb.queries[name], m.clients[client]);
  });
}

struct ClientWindow {
  std::uint64_t queries = 0;
  std::uint64_t failed = 0;
  double wall_s = 0, cpu_s = 0;
  std::uint64_t allocs = 0;
  Samples handle_us;
};

bool answered(const std::optional<Message>& response) {
  return response && response->header.rcode == RCode::NOERROR;
}

ClientWindow run_clients(SimBed& sb, const Budget& budget, bool corrupt_first) {
  ClientWindow w;
  w.handle_us.reserve(1 << 20);
  bool corrupt = corrupt_first;
  auto on_query = [&](std::uint32_t member, std::uint32_t client, std::uint32_t name) {
    auto& m = sb.members[member];
    const std::int64_t t0 = now_ns();
    auto response = m.resolver->handle_client_query(sb.queries[name], m.clients[client]);
    w.handle_us.add(static_cast<double>(now_ns() - t0) * 1e-3);
    if (corrupt && response) {
      // Self-test: the first answer is turned into a SERVFAIL.
      response->header.rcode = RCode::SERVFAIL;
      corrupt = false;
    }
    if (!answered(response)) ++w.failed;
  };
  Window window;
  for (std::uint64_t epochs = 0; budget.more(epochs); ++epochs) {
    w.queries += run_epoch(sb, on_query);
  }
  w.wall_s = window.wall_s();
  w.cpu_s = window.cpu_s();
  w.allocs = window.allocs();
  return w;
}

void check_caches(const SimBed& sb, Result& result) {
  std::uint64_t broken = 0;
  for (const auto& r : sb.bed->resolvers()) {
    const auto& stats = r->cache().stats();
    if (stats.insertions != stats.accounted_insertions(r->cache().size())) ++broken;
  }
  result.check(broken == 0, std::to_string(broken) +
                                " resolver caches break the insertion accounting identity");
}

void check_clients(const ClientWindow& w, Result& result) {
  result.count(w.queries);
  result.check(w.failed == 0, std::to_string(w.failed) + " of " +
                                  std::to_string(w.queries) +
                                  " client queries were not answered NOERROR",
               w.failed);
}

}  // namespace

void sim_resolve(const Options& options, Result& result) {
  SimBed sb;
  if (!options.trace) {
    // kSimSetups fresh testbeds, each timed through kSimWindowsPerSetup
    // windows; a window runs the clients and ends with one scan of the scan
    // fleet's forwarders.
    std::vector<EndToEnd> windows;
    const Budget budget =
        Budget::work(options.seconds / (kSimSetups * kSimWindowsPerSetup), kEpochsPerSecond);
    for (int k = 0; k < kSimSetups; ++k) {
      const double setup_s = timed_setups(1, [&] { build_sim(options.seed, sb); });
      // The process's first window runs slow while the heap grows; it is
      // run and checked but not timed.
      if (k == 0) check_clients(run_clients(sb, budget, false), result);
      for (int i = 0; i < kSimWindowsPerSetup; ++i) {
        EndToEnd e;
        if (i == 0) e.setup_s = setup_s;
        const ClientWindow w = run_clients(sb, budget, options.corrupt && k == 0 && i == 0);
        check_clients(w, result);
        Window scan_window;
        const auto scan = sb.scanner->scan(sb.scan_targets);
        const double scan_wall = scan_window.wall_s();
        const double scan_cpu = scan_window.cpu_s();
        result.count(scan.probes_sent);
        result.check(scan.probes_sent == sb.scan_targets.size(),
                     "scan sent " + std::to_string(scan.probes_sent) + " of " +
                         std::to_string(sb.scan_targets.size()) + " probes");
        e.queries = w.queries + scan.probes_sent;
        e.throughput_qps = static_cast<double>(e.queries) / (w.wall_s + scan_wall);
        e.cpu_ns_per_query = (w.cpu_s + scan_cpu) * 1e9 / static_cast<double>(e.queries);
        e.latency_us = w.handle_us;
        e.allocs = w.allocs + scan_window.allocs();
        windows.push_back(e);
      }
      check_caches(sb, result);
    }
    report_end_to_end(windows, "resolve_qps",
                      "one handle_client_query call (client queries plus scan probes "
                      "count as work)",
                      result);
    add(result.extra, "fleet_resolvers", static_cast<double>(sb.members.size()), "count",
        "CDN-dataset fleet at 1/" + std::to_string(kFleetScale) + " of the paper's size");
    return;
  }

  build_sim(options.seed, sb);
  const ClientWindow w = run_clients(sb, Budget::time(options.seconds / 2), options.corrupt);
  check_clients(w, result);

  // ---- traced window ----
  Tracer tracer(1 << 21);
  const auto loop_span = tracer.intern("netsim.run_until");
  const auto handle_span = tracer.intern("recursive.handle_client_query");
  Samples hit_us, miss_us;
  std::uint64_t upstream = 0, hits = 0, queries = 0, failed = 0, handle_allocs = 0;
  std::vector<std::vector<std::uint8_t>> wires;
  auto& network = sb.bed->network();
  std::uint32_t epoch = Tracer::kNoParent;  // the open run_until span
  auto on_query = [&](std::uint32_t member, std::uint32_t client, std::uint32_t name) {
    auto& m = sb.members[member];
    const auto counters = m.resolver->counters();
    const std::uint64_t a0 = allocations();
    std::optional<Message> response;
    const std::int64_t t0 = now_ns();
    {
      Scope s(tracer, handle_span, epoch, queries + 1);
      response = m.resolver->handle_client_query(sb.queries[name], m.clients[client]);
    }
    const double us = static_cast<double>(now_ns() - t0) * 1e-3;
    handle_allocs += allocations() - a0;
    const auto& after = m.resolver->counters();
    const bool hit = after.cache_hits > counters.cache_hits;
    (hit ? hit_us : miss_us).add(us);
    hits += hit ? 1 : 0;
    upstream += after.upstream_queries - counters.upstream_queries;
    ++queries;
    if (!answered(response)) ++failed;
    if (response && wires.size() < 4096) wires.push_back(response->serialize());
  };
  const std::uint64_t trips0 = network.datagrams_delivered() + network.datagrams_dropped();
  Window window;
  const std::int64_t end = now_ns() + static_cast<std::int64_t>(options.seconds / 2 * 1e9);
  std::uint64_t traced_queries = 0;
  while (now_ns() < end) {
    epoch = tracer.open(loop_span);
    const std::uint64_t n = run_epoch(sb, on_query);
    tracer.close(epoch, n);
    traced_queries += n;
  }
  const double traced_wall = window.wall_s();
  const std::uint64_t trips =
      network.datagrams_delivered() + network.datagrams_dropped() - trips0;
  result.count(queries);
  result.check(failed == 0, std::to_string(failed) + " traced client queries failed",
               failed);

  const auto scan_span = tracer.intern("scanner.scan");
  const std::uint64_t scan_a0 = allocations();
  measurement::ScanResults scan;
  {
    Scope s(tracer, scan_span);
    scan = sb.scanner->scan(sb.scan_targets);
    s.set_ops(scan.probes_sent);
  }
  const std::uint64_t scan_allocs = allocations() - scan_a0;
  result.count(scan.probes_sent);
  result.check(scan.probes_sent == sb.scan_targets.size(), "scan sent too few probes");
  check_caches(sb, result);

  // Message::parse over responses captured from the traced window.
  const auto parse_span = tracer.intern("dnscore.message_parse");
  std::uint64_t parsed = 0, answers = 0;
  const std::int64_t parse_end = now_ns() + 50'000'000;
  while (!wires.empty() && now_ns() < parse_end) {
    Scope s(tracer, parse_span);
    for (const auto& wire : wires) {
      const Message m = Message::parse(wire);
      answers += m.answers.size();
      ++parsed;
    }
    s.set_ops(wires.size());
  }

  const double q = static_cast<double>(queries);
  report_overhead(static_cast<double>(w.queries) / w.wall_s,
                  static_cast<double>(traced_queries) / traced_wall, "client queries/s",
                  result);
  add(result.layer, "run.allocs_per_query",
      static_cast<double>(w.allocs) / static_cast<double>(w.queries), "count",
      "untraced client window");
  const std::string hit_n = std::to_string(hit_us.size()) + " hits";
  const std::string miss_n = std::to_string(miss_us.size()) + " misses";
  add(result.layer, "recursive.handle_us.hit.p50", hit_us.quantile(0.5), "us", hit_n);
  add(result.layer, "recursive.handle_us.miss.p50", miss_us.quantile(0.5), "us", miss_n);
  add(result.layer, "recursive.handle_us.miss.p99", miss_us.quantile(0.99), "us", miss_n);
  add(result.layer, "recursive.upstream_per_query", static_cast<double>(upstream) / q,
      "count", std::to_string(upstream) + " upstream / " + std::to_string(queries) +
                   " client queries");
  add(result.layer, "recursive.cache_hit_ratio", static_cast<double>(hits) / q, "ratio",
      std::to_string(hits) + " hits / " + std::to_string(queries) + " client queries");
  add(result.layer, "recursive.allocs_per_query", static_cast<double>(handle_allocs) / q,
      "count", std::to_string(handle_allocs) + " allocations / " +
                   std::to_string(queries) + " client queries");
  add(result.layer, "netsim.round_trips_per_query", static_cast<double>(trips) / q, "count",
      std::to_string(trips) + " datagram exchanges / " + std::to_string(queries) +
          " client queries");
  add(result.layer, "netsim.loop_self_ms",
      (tracer.total_ns("netsim.run_until") -
       tracer.total_ns("recursive.handle_client_query")) * 1e-6,
      "ms", "run_until time minus time inside handle_client_query, traced window");
  add(result.layer, "scanner.scan_ms", tracer.total_ns("scanner.scan") * 1e-6, "ms",
      std::to_string(scan.probes_sent) + " probes");
  add(result.layer, "scanner.allocs_per_probe",
      static_cast<double>(scan_allocs) / static_cast<double>(scan.probes_sent), "count",
      std::to_string(scan_allocs) + " allocations / " +
          std::to_string(scan.probes_sent) + " probes");
  add(result.layer, "dnscore.message_parse_ns",
      tracer.total_ns("dnscore.message_parse") /
          static_cast<double>(tracer.total_ops("dnscore.message_parse")),
      "ns", std::to_string(parsed) + " parses of " + std::to_string(wires.size()) +
                " captured responses (" + std::to_string(answers) + " answer records)");
  result.traced_wall_ms = traced_wall * 1e3;
  result.layer_table = tracer.layers();
  tracer.write_json(options.trace_dir + "/sim_resolve-seed" +
                        std::to_string(options.seed) + ".json",
                    "sim_resolve");
}

}  // namespace perfbench
