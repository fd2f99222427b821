// live_udp: the live authoritative frontend over loopback UDP.
//
// A UdpServer with one shard serves a zone through AuthServer::serve_wire.
// One LiveClient on the benchmark thread drives it with an open loop: a
// send schedule drawn from the seed (Poisson gaps, a fixed query mix),
// latency timed from when each query was due, at a reference rate and
// then up a fixed ladder of rates. Every response must be byte-identical
// to serve_wire's answer to the same bytes; timeouts and refused submits
// are failures.
#include <algorithm>
#include <array>
#include <atomic>
#include <cstring>
#include <memory>
#include <string>
#include <thread>

#include "authoritative/ecs_policy.h"
#include "authoritative/server.h"
#include "dnscore/message.h"
#include "dnscore/message_view.h"
#include "live/client.h"
#include "live/sys_socket.h"
#include "live/udp_server.h"
#include "netsim/rng.h"
#include "obs/metrics.h"
#include "workloads.h"

namespace perfbench {

using namespace ecsdns;
using dnscore::IpAddress;
using dnscore::Message;
using dnscore::Name;

namespace {

constexpr int kTemplates = 256;
// In-flight budget: about 7 ms of queries at the top of the ladder, so a
// short scheduling stall does not turn into refused submits.
constexpr int kMaxInFlight = 1024;
constexpr double kLimitUs = 1000;  // p99 limit that defines live_max_qps
// Reference rate for the latency metrics, and the ladder (queries/s).
constexpr double kReferenceRate = 20000;
constexpr std::array<double, 17> kLadder = {
    20000, 30000, 40000, 50000, 60000,  65000,  70000,  75000,  80000,
    85000, 90000, 95000, 100000, 110000, 120000, 130000, 140000};
// A rung's p99 is taken per sub-window of the schedule and summarised by
// the median across sub-windows: an isolated host stall of a few ms then
// moves one sub-window's p99, not the rung's verdict.
constexpr std::int64_t kSubWindowNs = 100'000'000;
// Share of the timed window spent at the reference rate; the ladder gets
// the rest, split evenly across its rungs.
constexpr double kReferenceShare = 0.4;

const IpAddress kLoopback = IpAddress::v4(127, 0, 0, 1);

struct Template {
  std::vector<std::uint8_t> wire;      // query, ID 0
  std::vector<std::uint8_t> expected;  // serve_wire's response, ID 0
  const char* kind = "";
};

std::unique_ptr<authoritative::AuthServer> make_auth() {
  authoritative::AuthConfig config;
  config.label = "perfbench-live";
  config.log_queries = false;
  auto auth = std::make_unique<authoritative::AuthServer>(
      config, std::make_unique<authoritative::ScopeDeltaPolicy>(4));
  const Name zone = Name::from_string("bench.example");
  auto& z = auth->add_zone(zone);
  for (int i = 0; i < 64; ++i) {
    z.add(dnscore::ResourceRecord::make_a(zone.prepend("h" + std::to_string(i)), 300,
                                          IpAddress::v4(203, 0, 113,
                                                        static_cast<std::uint8_t>(i))));
  }
  // A name with many addresses: the larger-response share of the mix.
  for (int i = 0; i < 24; ++i) {
    z.add(dnscore::ResourceRecord::make_a(zone.prepend("big"), 300,
                                          IpAddress::v4(198, 51, 100,
                                                        static_cast<std::uint8_t>(i))));
  }
  return auth;
}

// The query mix: 70% minimal A queries, 15% ECS (v4 /16, /24, /32 and v6
// /56), 10% larger responses, 5% malformed ECS (FORMERR path). The shares
// are placeholders: neither the paper nor the repository's data gives the
// share of ECS-carrying or malformed queries an authoritative receives.
std::vector<Template> make_templates(std::uint64_t seed,
                                     authoritative::AuthServer& auth, Result& result) {
  netsim::Rng rng = netsim::Rng::stream(seed, 0x11fe);
  const Name zone = Name::from_string("bench.example");
  authoritative::DispatchScratch scratch;
  std::vector<Template> out(kTemplates);
  for (auto& t : out) {
    const double u = rng.uniform_double();
    const Name host = zone.prepend("h" + std::to_string(rng.uniform(64)));
    Message q = Message::make_query(0, host, dnscore::RRType::A);
    t.kind = "minimal";
    if (u >= 0.70 && u < 0.85) {
      static constexpr int kV4Lengths[] = {16, 24, 32};
      const auto kind = rng.uniform(4);
      if (kind < 3) {
        const auto addr = IpAddress::v4(static_cast<std::uint32_t>(rng.next_u64()));
        q.set_ecs(dnscore::EcsOption::for_query(dnscore::Prefix(addr, kV4Lengths[kind])));
      } else {
        std::array<std::uint8_t, 16> bytes{0x20, 0x01, 0x0d, 0xb8};
        for (std::size_t i = 4; i < 8; ++i) bytes[i] = static_cast<std::uint8_t>(rng.uniform(256));
        q.set_ecs(dnscore::EcsOption::for_query(dnscore::Prefix(IpAddress::v6(bytes), 56)));
      }
      t.kind = "ecs";
    } else if (u >= 0.85 && u < 0.95) {
      q = Message::make_query(0, zone.prepend("big"), dnscore::RRType::A);
      q.opt.emplace();
      q.opt->udp_payload_size = 1232;
      t.kind = "large";
    } else if (u >= 0.95) {
      // Structurally valid message, undecodable ECS payload (family 99).
      q.opt.emplace();
      auto& slot = q.opt->ensure_option(dnscore::EdnsOptionCode::ECS);
      slot.payload = {0x00, 0x63, static_cast<std::uint8_t>(rng.uniform(256)), 0x00};
      t.kind = "malformed_ecs";
    }
    t.wire = q.serialize();
    const bool answered =
        auth.serve_wire(t.wire, kLoopback, 0, /*via_tcp=*/false, scratch, t.expected);
    result.check(answered, std::string("serve_wire dropped a ") + t.kind + " query");
  }
  return out;
}

std::uint16_t wire_id(std::uint64_t sequence) {
  return static_cast<std::uint16_t>(sequence % 65535 + 1);
}

void set_id(std::vector<std::uint8_t>& wire, std::uint16_t id) {
  wire[0] = static_cast<std::uint8_t>(id >> 8);
  wire[1] = static_cast<std::uint8_t>(id & 0xff);
}

// serve_wire's answer to the same query bytes: the expected response with
// the query's ID.
bool matches(const std::vector<std::uint8_t>& response,
             const std::vector<std::uint8_t>& expected, std::uint16_t id) {
  return response.size() == expected.size() && response.size() >= 2 &&
         response[0] == static_cast<std::uint8_t>(id >> 8) &&
         response[1] == static_cast<std::uint8_t>(id & 0xff) &&
         std::memcmp(response.data() + 2, expected.data() + 2, expected.size() - 2) == 0;
}

struct Phase {
  double rate = 0;
  Samples latency_us;  // from due time, answered queries
  std::vector<std::int64_t> due_ns;  // schedule offset of each latency sample
  Samples late_us;     // how late the generator sent each query
  std::uint64_t scheduled = 0, ok = 0, failed = 0, mismatched = 0;
  std::uint64_t backlog = 0;  // in flight when the last query was due
  double delivered_qps = 0;
  double submit_ns = 0, poll_ns = 0;  // traced phases only
  std::uint64_t polls_with_completions = 0;

  // Median over sub-windows of each sub-window's p99 (sub-windows with at
  // least 100 samples); the whole-phase p99 when none qualifies.
  double windowed_p99() const {
    std::vector<Samples> windows;
    for (std::size_t i = 0; i < due_ns.size(); ++i) {
      const auto w = static_cast<std::size_t>(due_ns[i] / kSubWindowNs);
      if (windows.size() <= w) windows.resize(w + 1);
      windows[w].add(latency_us.at(i));
    }
    std::vector<double> p99s;
    for (const auto& w : windows) {
      if (w.size() >= 100) p99s.push_back(w.quantile(0.99));
    }
    return p99s.empty() ? latency_us.quantile(0.99) : median(p99s);
  }

  bool passes() const {
    return failed == 0 && windowed_p99() <= kLimitUs &&
           static_cast<double>(backlog) <= std::max(16.0, rate * kLimitUs * 1e-6);
  }
};

// Drives one open-loop phase: `rate` queries/s for `seconds`, every send
// time and template fixed up front from `rng`.
Phase run_phase(live::LiveClient& client, const std::vector<Template>& templates,
                netsim::Rng& rng, std::uint64_t& sequence, double rate, double seconds,
                bool corrupt, Tracer* tracer) {
  Phase p;
  p.rate = rate;
  const auto n = static_cast<std::size_t>(rate * seconds);
  std::vector<std::int64_t> due(n);
  std::vector<std::uint16_t> which(n);
  double t = 0;
  for (std::size_t i = 0; i < n; ++i) {
    t += rng.exponential(1e9 / rate);
    due[i] = static_cast<std::int64_t>(t);
    which[i] = static_cast<std::uint16_t>(rng.uniform(templates.size()));
  }
  p.scheduled = n;
  p.latency_us.reserve(n);
  p.due_ns.reserve(n);
  p.late_us.reserve(n);
  std::vector<live::Completion> done;
  done.reserve(kMaxInFlight);
  std::vector<std::uint8_t> buffer(4096);
  const std::uint32_t submit_span = tracer ? tracer->intern("live.client.submit") : 0;
  const std::uint32_t poll_span = tracer ? tracer->intern("live.client.poll") : 0;

  const std::int64_t start = now_ns() + 1'000'000;
  while (now_ns() < start) {
  }
  std::size_t next = 0;
  std::uint64_t completed = 0, submitted = 0;
  std::int64_t last_completion = start;
  bool backlog_noted = false;
  const std::int64_t give_up = start + static_cast<std::int64_t>(seconds * 1e9) + 1'000'000'000;
  while (completed < submitted || next < n) {
    std::int64_t now = now_ns();
    if (now > give_up) break;
    while (next < n && start + due[next] <= now) {
      const auto& tpl = templates[which[next]];
      buffer.assign(tpl.wire.begin(), tpl.wire.end());
      set_id(buffer, wire_id(sequence + next));
      p.late_us.add(static_cast<double>(now - (start + due[next])) * 1e-3);
      bool accepted;
      if (tracer) {
        Scope s(*tracer, submit_span, Tracer::kNoParent, next + 1);
        accepted = client.submit(buffer, next);
      } else {
        accepted = client.submit(buffer, next);
      }
      if (accepted) {
        ++submitted;
      } else {
        ++p.failed;  // refused: the in-flight budget is exhausted
      }
      ++next;
      now = now_ns();
    }
    if (next == n && !backlog_noted) {
      p.backlog = submitted - completed;
      backlog_noted = true;
    }
    done.clear();
    const std::int64_t poll_t0 = now_ns();
    client.poll(done, 0);
    const std::int64_t t_now = now_ns();
    if (tracer && !done.empty()) {
      tracer->record(poll_span, poll_t0, t_now, done.size());
      p.poll_ns += static_cast<double>(t_now - poll_t0);
      ++p.polls_with_completions;
    }
    for (auto& c : done) {
      ++completed;
      const std::size_t i = c.tag;
      if (!c.ok) {
        ++p.failed;
        continue;
      }
      const auto& expected = templates[which[i]].expected;
      if (corrupt && !c.response.empty()) {
        c.response.back() ^= 0x01;
        corrupt = false;
      }
      const bool same = matches(c.response, expected, wire_id(sequence + i));
      client.pool().release(std::move(c.response));
      if (!same) {
        ++p.mismatched;
        ++p.failed;
        continue;
      }
      ++p.ok;
      p.latency_us.add(static_cast<double>(t_now - (start + due[i])) * 1e-3);
      p.due_ns.push_back(due[i]);
      last_completion = t_now;
    }
  }
  p.failed += submitted - completed;  // lost past the give-up deadline
  sequence += n;
  if (p.ok > 0) {
    p.delivered_qps = static_cast<double>(p.ok) /
                      (static_cast<double>(last_completion - start + 1) * 1e-9);
  }
  if (tracer) p.submit_ns = tracer->total_ns("live.client.submit");
  return p;
}

void count_phase(const Phase& p, Result& result, const char* label) {
  result.count(p.scheduled);
  result.check(p.mismatched == 0, std::string(label) + ": " + std::to_string(p.mismatched) +
                                      " responses differ from serve_wire",
               p.mismatched);
  result.check(p.failed == p.mismatched,
               std::string(label) + ": " + std::to_string(p.failed - p.mismatched) +
                   " queries timed out or were refused",
               p.failed - p.mismatched);
}

// Loopback socket with a 4 MiB receive buffer (the kernel default holds a
// few hundred datagrams), so a short stall of the reading thread does not
// drop responses.
std::unique_ptr<live::SysUdpSocket> open_socket() {
  live::SysUdpSocket::Options options;
  options.bind = netsim::SocketAddress{kLoopback, 0};
  options.recv_buffer_bytes = 4 << 20;
  return live::SysUdpSocket::open(options);
}

struct LiveBed {
  std::unique_ptr<authoritative::AuthServer> auth;
  std::vector<Template> templates;
  std::unique_ptr<live::UdpServer> server;
  live::SteadyClock clock;
  std::unique_ptr<live::SysUdpSocket> client_socket;  // outlives `client`
  std::unique_ptr<live::LiveClient> client;
  netsim::Rng rng{1};
  std::uint64_t sequence = 0;  // query IDs continue across phases
};

live::LiveClientConfig client_config(const netsim::SocketAddress& server) {
  live::LiveClientConfig config;
  config.server = server;
  config.max_in_flight = kMaxInFlight;
  config.max_attempts = 3;
  config.timeout_us = 100'000;
  config.batch = 32;
  return config;
}

void build_live(std::uint64_t seed, LiveBed& lb, Result& result) {
  lb.client.reset();
  lb.server.reset();
  lb.auth = make_auth();
  lb.templates = make_templates(seed, *lb.auth, result);
  live::LiveServerConfig config;
  config.shards = 1;
  lb.server = std::make_unique<live::UdpServer>(config, *lb.auth);
  lb.server->start();
  lb.client_socket = open_socket();
  lb.client = std::make_unique<live::LiveClient>(client_config(lb.server->address()),
                                                 *lb.client_socket, lb.clock);
  lb.rng = netsim::Rng::stream(seed, 0x5eed);
  // Warm-up: converge every retained buffer on both sides.
  Phase warm = run_phase(*lb.client, lb.templates, lb.rng, lb.sequence, kReferenceRate,
                         0.25, false, nullptr);
  result.check(warm.failed == 0, "warm-up queries failed");
}

std::uint64_t registry_counter(const char* name) {
  return obs::MetricsRegistry::global().counter(name).value();
}

}  // namespace

void live_udp(const Options& options, Result& result) {
  LiveBed lb;
  const double setup_s = timed_setups(options.trace ? 1 : kSegments,
                                      [&] { build_live(options.seed, lb, result); });

  if (!options.trace) {
    const double ref_s = options.seconds * kReferenceShare;
    const double rung_s = options.seconds * (1 - kReferenceShare) /
                          static_cast<double>(kLadder.size());
    Window window;
    const double server_cpu0 = thread_cpu_s("live-epoll-0");
    Phase ref = run_phase(*lb.client, lb.templates, lb.rng, lb.sequence, kReferenceRate, ref_s,
                          options.corrupt, nullptr);
    const double server_cpu = thread_cpu_s("live-epoll-0") - server_cpu0;
    count_phase(ref, result, "reference rate");
    std::uint64_t queries = ref.scheduled;

    double max_qps = 0;
    double max_rate = 0;
    std::string ladder;
    for (const double rate : kLadder) {
      const Phase rung =
          run_phase(*lb.client, lb.templates, lb.rng, lb.sequence, rate, rung_s, false, nullptr);
      queries += rung.scheduled;
      char row[160];
      std::snprintf(row, sizeof(row), "%s%.0f:%s(p99 %.0fus, %llu failed, backlog %llu)",
                    ladder.empty() ? "" : " ", rate, rung.passes() ? "pass" : "FAIL",
                    rung.windowed_p99(),
                    static_cast<unsigned long long>(rung.failed),
                    static_cast<unsigned long long>(rung.backlog));
      ladder += row;
      // A rung that misses the limit (latency, loss or backlog) is the
      // measured outcome that ends the ladder, not a failed check; only a
      // wrong response counts as a failure here.
      result.count(rung.scheduled);
      result.check(rung.mismatched == 0, "ladder: responses differ from serve_wire",
                   rung.mismatched);
      if (!rung.passes()) break;
      max_qps = rung.delivered_qps;
      max_rate = rate;
    }

    // One window: the set-up is repeated only for its median time.
    EndToEnd e;
    e.setup_s = setup_s;
    e.throughput_qps = max_qps;
    e.cpu_ns_per_query = server_cpu * 1e9 / static_cast<double>(ref.scheduled);
    e.latency_us = ref.latency_us;
    e.queries = queries;
    e.allocs = window.allocs();
    report_end_to_end({e}, "live_max_qps",
                      "queries at " + std::to_string(static_cast<int>(kReferenceRate)) +
                          " q/s, timed from their due time",
                      result);
    add(result.extra, "live_max_rung_qps", max_rate, "1/s",
        "offered rate of the highest rung meeting the limit");
    add(result.extra, "live_p50_us", ref.latency_us.quantile(0.5), "us");
    add(result.extra, "live_p99_us", ref.latency_us.quantile(0.99), "us",
        std::to_string(ref.latency_us.size()) + " samples, whole reference phase");
    add(result.extra, "live.gen_late_us.p99", ref.late_us.quantile(0.99), "us",
        "generator lateness at the reference rate");
    add(result.extra, "server_cpu_s", server_cpu, "s",
        "live-epoll-0 thread during the reference phase");
    std::printf("ladder (%.2f s per rung): %s\n", rung_s, ladder.c_str());
    return;
  }

  // ---- traced: untraced reference phase, then the same phase against a
  // ServerShard the benchmark drives on its own thread ----
  const Window untraced_window;
  Phase base = run_phase(*lb.client, lb.templates, lb.rng, lb.sequence, kReferenceRate,
                         options.seconds / 2, false, nullptr);
  count_phase(base, result, "untraced reference rate");
  const std::uint64_t untraced_allocs = untraced_window.allocs();
  lb.server.reset();

  const std::uint64_t retries0 = registry_counter("live.client.retries");
  const std::uint64_t drops0 = registry_counter("live.send_drops");
  auto socket = open_socket();
  live::LiveServerConfig shard_config;
  live::ServerShard shard(*socket, *lb.auth, lb.clock, shard_config);
  Tracer server_tracer;
  std::atomic<bool> running{true};
  std::int64_t busy_ns = 0;
  std::thread server_thread([&] {
    const auto span = server_tracer.intern("live.server.process_once");
    while (running.load(std::memory_order_relaxed)) {
      if (socket->wait_readable(1) != netsim::IoStatus::kOk) continue;
      for (;;) {
        const std::int64_t t0 = now_ns();
        const std::uint32_t s = server_tracer.open(span);
        const std::size_t got = shard.process_once();
        server_tracer.close(s, got);
        busy_ns += now_ns() - t0;
        if (got == 0) break;
      }
    }
  });
  // Stops and joins the server thread on every exit from this scope.
  struct Joiner {
    std::atomic<bool>& running;
    std::thread& thread;
    ~Joiner() {
      running.store(false);
      if (thread.joinable()) thread.join();
    }
  } joiner{running, server_thread};
  lb.client->set_server(socket->local_address());
  Tracer tracer(1 << 21);
  const std::int64_t traced_t0 = now_ns();
  Phase traced = run_phase(*lb.client, lb.templates, lb.rng, lb.sequence, kReferenceRate,
                           options.seconds / 2, options.corrupt, &tracer);
  const double traced_wall_ns = static_cast<double>(now_ns() - traced_t0);
  running.store(false);
  server_thread.join();
  count_phase(traced, result, "traced reference rate");

  Samples process_us, batch;
  for (const auto& s : server_tracer.spans()) {
    if (s.ops == 0) continue;
    process_us.add(static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
    batch.add(static_cast<double>(s.ops));
  }
  tracer.absorb(server_tracer);

  // In-process costs on the same query mix, off the socket path.
  authoritative::DispatchScratch scratch;
  std::vector<std::uint8_t> out;
  Samples serve_ns;
  const auto view_span = tracer.intern("dnscore.message_view");
  std::uint64_t views = 0;
  const std::int64_t until = now_ns() + 100'000'000;
  while (now_ns() < until) {
    for (const auto& t : lb.templates) {
      const std::int64_t t0 = now_ns();
      (void)lb.auth->serve_wire(t.wire, kLoopback, 0, false, scratch, out);
      serve_ns.add(static_cast<double>(now_ns() - t0));
    }
    Scope s(tracer, view_span);
    for (const auto& t : lb.templates) {
      const dnscore::MessageView view(t.wire);
      views += view.question_count();
    }
    s.set_ops(lb.templates.size());
  }

  report_overhead(1e6 / base.latency_us.quantile(0.5), 1e6 / traced.latency_us.quantile(0.5),
                  "1 / live_p50_us", result);
  add(result.layer, "run.allocs_per_query",
      static_cast<double>(untraced_allocs) / static_cast<double>(base.scheduled), "count",
      "untraced reference phase");
  const std::string n_serve = std::to_string(serve_ns.size()) + " calls on the query mix";
  add(result.layer, "authoritative.serve_wire_ns.p50", serve_ns.quantile(0.5), "ns", n_serve);
  add(result.layer, "dnscore.message_view_ns",
      tracer.total_ns("dnscore.message_view") /
          static_cast<double>(tracer.total_ops("dnscore.message_view")),
      "ns", std::to_string(views) + " views built in batches of " +
                std::to_string(lb.templates.size()));
  const std::string n_proc = std::to_string(process_us.size()) + " non-empty cycles";
  add(result.layer, "live.server.process_once_us.p50", process_us.quantile(0.5), "us", n_proc);
  add(result.layer, "live.server.process_once_us.p99", process_us.quantile(0.99), "us", n_proc);
  add(result.layer, "live.server.batch_size.mean", batch.mean(), "count", n_proc);
  add(result.layer, "live.server.busy_ratio", static_cast<double>(busy_ns) / traced_wall_ns,
      "ratio", "time inside process_once / traced phase wall");
  add(result.layer, "live.client.submit_ns",
      traced.submit_ns / static_cast<double>(traced.scheduled), "ns",
      std::to_string(traced.scheduled) + " submits");
  add(result.layer, "live.client.poll_us",
      traced.polls_with_completions
          ? traced.poll_ns * 1e-3 / static_cast<double>(traced.polls_with_completions)
          : 0,
      "us", std::to_string(traced.polls_with_completions) + " polls that completed queries");
  add(result.layer, "live.gen_late_us.p99", traced.late_us.quantile(0.99), "us",
      std::to_string(traced.late_us.size()) + " sends");
  add(result.layer, "live.client.retries",
      static_cast<double>(registry_counter("live.client.retries") - retries0), "count");
  add(result.layer, "live.server.send_drops",
      static_cast<double>(registry_counter("live.send_drops") - drops0), "count");
  result.traced_wall_ms = traced_wall_ns * 1e-6;
  result.layer_table = tracer.layers();
  tracer.write_json(options.trace_dir + "/live_udp-seed" + std::to_string(options.seed) +
                        ".json",
                    "live_udp");
  lb.client.reset();
}

}  // namespace perfbench
