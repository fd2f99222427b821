// Runtime half of the ECSDNS_NOALLOC contracts that scripts/ecstidy checks
// statically. This binary links bench/alloc_hooks.cpp (counting operator
// new/delete), so obs::allocation_count() advances on every heap
// allocation — the tests below pin the hot paths that must stay flat.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "authoritative/ecs_policy.h"
#include "authoritative/server.h"
#include "dnscore/ecs.h"
#include "dnscore/message.h"
#include "dnscore/message_view.h"
#include "dnscore/query_writer.h"
#include "dnscore/wire.h"
#include "live/client.h"
#include "live/udp_server.h"
#include "measurement/cache_sim.h"
#include "measurement/testbed.h"
#include "netsim/buffer_pool.h"
#include "netsim/socket.h"
#include "obs/alloc_counter.h"

namespace ecsdns {
namespace {

using dnscore::Message;
using dnscore::MessageView;
using dnscore::Name;
using dnscore::RRType;
using dnscore::WireWriter;
using netsim::BufferPool;

std::uint64_t allocs() { return obs::allocation_count(); }

TEST(AllocHooks, AreLinkedIntoThisBinary) {
  const auto before = allocs();
  auto* p = new std::uint64_t(42);
  EXPECT_GT(allocs(), before) << "alloc_hooks.cpp is not linked; every "
                                 "other test in this file is vacuous";
  delete p;
}

// Regression: BufferPool::release() used to grow the freelist vector on the
// packet path (the first kMaxPooled releases each risked a reallocation).
// The constructor now reserves the full bound, so a release/acquire cycle
// of an already-allocated buffer performs zero heap allocations.
TEST(BufferPoolNoalloc, ReleaseAcquireCycleIsAllocationFree) {
  BufferPool pool;
  std::vector<std::vector<std::uint8_t>> bufs;
  for (int i = 0; i < 8; ++i) {
    auto b = pool.acquire();
    b.resize(512);  // converge capacity before the measured window
    bufs.push_back(std::move(b));
  }
  const auto before = allocs();
  for (int round = 0; round < 100; ++round) {
    for (auto& b : bufs) pool.release(std::move(b));
    for (auto& b : bufs) b = pool.acquire();
  }
  EXPECT_EQ(allocs(), before)
      << "BufferPool release/acquire allocated on the hot path";
}

TEST(BufferPoolNoalloc, FreelistNeverReallocatesEvenAtCapacity) {
  BufferPool pool;
  // Donate more buffers than kMaxPooled; the pool must cap, not grow.
  std::vector<std::vector<std::uint8_t>> bufs(BufferPool::kMaxPooled + 8);
  for (auto& b : bufs) b.resize(64);
  const auto before = allocs();
  for (auto& b : bufs) pool.release(std::move(b));
  // The overflow releases free their buffers (deallocation is fine); the
  // freelist itself must not have allocated.
  EXPECT_EQ(allocs(), before);
  EXPECT_EQ(pool.pooled(), BufferPool::kMaxPooled);
}

// The steady-state serialize path: once a pooled buffer's capacity has
// converged on the message size, re-serializing into it allocates nothing.
TEST(SerializeNoalloc, PooledSerializeSteadyStateIsAllocationFree) {
  Message q = Message::make_query(
      0x1234, Name::from_string("www.example.com"), RRType::A);
  BufferPool pool;
  auto buf = pool.acquire();
  {
    WireWriter w(buf);
    q.serialize_into(w);  // warm-up: grows buf to the message size
  }
  const auto before = allocs();
  for (int i = 0; i < 50; ++i) {
    pool.release(std::move(buf));
    buf = pool.acquire();
    WireWriter w(buf);
    q.serialize_into(w, /*compress=*/false);
  }
  EXPECT_EQ(allocs(), before)
      << "steady-state pooled serialization allocated";
}

// MessageView's validating walk records offsets only — constructing a view
// over existing wire bytes must not allocate.
TEST(MessageViewNoalloc, ConstructionIsAllocationFree) {
  Message q = Message::make_query(
      7, Name::from_string("cachetest.example.org"), RRType::AAAA);
  const std::vector<std::uint8_t> wire = q.serialize();
  const auto before = allocs();
  for (int i = 0; i < 50; ++i) {
    MessageView view(wire);
    ASSERT_EQ(view.id(), 7);
    ASSERT_FALSE(view.has_ecs());
    ASSERT_EQ(view.ecs_payload().size(), 0u);
  }
  EXPECT_EQ(allocs(), before) << "MessageView construction allocated";
}

// The query writer encodes straight into a pooled buffer: once the
// buffer's capacity has converged, writing a query with ECS allocates
// nothing.
TEST(QueryWriterNoalloc, PooledWriteSteadyStateIsAllocationFree) {
  const Name qname = Name::from_string("www.noalloc.example");
  const auto ecs =
      dnscore::EcsOption::for_query(dnscore::Prefix::parse("198.51.100.0/24"));
  BufferPool pool;
  auto buf = pool.acquire();
  {
    WireWriter w(buf);
    dnscore::write_query(w, {.id = 1, .ecs = &ecs}, qname, RRType::A);
  }
  const auto before = allocs();
  for (int i = 0; i < 50; ++i) {
    pool.release(std::move(buf));
    buf = pool.acquire();
    WireWriter w(buf);
    const auto id = static_cast<std::uint16_t>(i);
    dnscore::write_query(w, {.id = id, .rd = false, .ecs = &ecs}, qname, RRType::A);
  }
  EXPECT_EQ(allocs(), before) << "steady-state query writing allocated";
}

// The record walk decodes each record's fixed fields in place: walking
// every section of a referral-shaped response allocates nothing.
TEST(MessageViewNoalloc, RecordWalkIsAllocationFree) {
  const Name zone = Name::from_string("noalloc.example");
  Message m = Message::make_response(
      Message::make_query(9, zone.prepend("www"), RRType::A));
  m.answers.push_back(dnscore::ResourceRecord::make_cname(zone.prepend("www"), 30,
                                                          zone.prepend("edge")));
  m.authorities.push_back(
      dnscore::ResourceRecord::make_ns(zone, 3600, zone.prepend("ns1")));
  m.additional.push_back(dnscore::ResourceRecord::make_a(
      zone.prepend("ns1"), 3600, dnscore::IpAddress::v4(192, 0, 2, 53)));
  m.set_ecs(dnscore::EcsOption::for_response(
      dnscore::Prefix::parse("198.51.100.0/24"), 24));
  const std::vector<std::uint8_t> wire = m.serialize();
  const MessageView view(wire);
  const auto before = allocs();
  std::uint64_t ttls = 0;
  std::size_t a_rdata = 0;
  for (int i = 0; i < 50; ++i) {
    for (const auto& rr : view.answers()) ttls += rr.ttl();
    for (const auto& rr : view.authorities()) ttls += rr.ttl();
    for (const auto& rr : view.additional()) {
      ttls += rr.ttl();
      if (rr.type() == RRType::A) a_rdata += rr.rdata().size();
    }
  }
  EXPECT_EQ(allocs(), before) << "record walk allocated";
  // One record per section; the OPT record is not part of the walk.
  EXPECT_EQ(ttls, 50u * (30 + 3600 + 3600));
  EXPECT_EQ(a_rdata, 50u * 4);
}

// A cache miss through RecursiveResolver with a warm NS cache: the upstream
// query is written into a pooled buffer and the response triaged through
// MessageView, so what is left is building the answer and the reply. The
// count is pinned exactly; a change that moves it must update the pin and
// this list:
//   1. the ECS option's address bytes (EcsOption::for_query),
//   2. the answer records built from the view,
//   3. the client's copy of them,
//   4-5. the cache's length bucket and its table (the cache was cleared),
//   6. the reply's question section (Message::make_response).
// The same miss made 22 allocations when the upstream path built and
// parsed full Messages.
TEST(ResolverAllocations, WarmNsCacheMissAllocationCountIsPinned) {
  measurement::Testbed bed;
  authoritative::AuthConfig config;
  config.log_queries = false;  // log appends allocate by design
  const auto zone = Name::from_string("noalloc.example");
  auto& auth = bed.add_auth("auth", zone, "Ashburn",
                            std::make_unique<authoritative::ScopeDeltaPolicy>(0), config);
  auth.find_zone(zone)->add(dnscore::ResourceRecord::make_a(
      zone.prepend("www"), 60, dnscore::IpAddress::v4(203, 0, 113, 10)));
  auto& resolver = bed.add_resolver(resolver::ResolverConfig::correct(), "Chicago");
  bed.network().set_advance_clock(false);
  const Message q = Message::make_query(1, zone.prepend("www"), RRType::A);
  const auto client = dnscore::IpAddress::v4(100, 64, 1, 5);

  ASSERT_TRUE(resolver.handle_client_query(q, client).has_value());  // warm NS cache
  std::vector<std::uint64_t> per_miss;
  for (int i = 0; i < 40; ++i) {
    resolver.cache().clear();  // the next query misses; NS cache stays warm
    const auto upstream = resolver.counters().upstream_queries;
    const auto before = allocs();
    const auto response = resolver.handle_client_query(q, client);
    const auto after = allocs();
    ASSERT_TRUE(response.has_value());
    ASSERT_EQ(response->answers.size(), 1u);
    ASSERT_EQ(resolver.counters().upstream_queries, upstream + 1);
    if (i >= 8) per_miss.push_back(after - before);  // after pools converge
  }
  for (const std::uint64_t n : per_miss) EXPECT_EQ(n, 6u);
}

// The §7 unbounded fold in steady state: once a periodic stream has
// reached its steady live count, the cache table, the expiry ring and the
// expiry heap have all converged, and observe() allocates nothing. Two
// TTLs, so short-lived records take the heap behind long-lived ones on the
// ring and both halves of the queue are on the line.
TEST(CacheSimNoalloc, SteadyStateObserveIsAllocationFree) {
  constexpr std::uint32_t kResolvers = 4;
  const std::array<dnscore::IpAddress, 3> clients = {
      dnscore::IpAddress::v4(100, 64, 1, 5), dnscore::IpAddress::v4(100, 64, 2, 5),
      dnscore::IpAddress::v4(100, 64, 3, 5)};
  const auto query = [&](std::uint64_t i) {
    measurement::TraceQuery q;
    q.time = static_cast<netsim::SimTime>(i) * 250 * netsim::kMillisecond;
    q.resolver = static_cast<std::uint32_t>(i % kResolvers);
    // Each resolver cycles through 15 (client, name) keys every 15 s.
    q.client = clients[(i / kResolvers) % clients.size()];
    q.name = static_cast<std::uint32_t>((i / kResolvers) % 5);
    q.scope = 24;
    q.ttl_s = i % 3 == 0 ? 20 : 5;
    return q;
  };
  measurement::StreamingCacheSim sim(kResolvers, measurement::CacheSimOptions{});
  // The stream repeats every 60 queries (15 s), so equal phases hold
  // equal live counts.
  constexpr std::uint64_t kPeriod = 60;
  std::uint64_t i = 0;
  for (; i < 64 * kPeriod; ++i) sim.observe(query(i));  // 960 s: many TTLs
  const auto live = sim.live_entries();
  const auto ring = sim.ring_pushes();
  const auto heap = sim.heap_pushes();
  const auto before = allocs();
  for (; i < 128 * kPeriod; ++i) sim.observe(query(i));
  EXPECT_EQ(allocs(), before) << "steady-state StreamingCacheSim::observe allocated";
  EXPECT_EQ(sim.live_entries(), live);
  EXPECT_GT(sim.ring_pushes(), ring);
  EXPECT_GT(sim.heap_pushes(), heap);
  const auto rows = sim.finish();
  EXPECT_GT(rows.total_hits(), 0u);
  EXPECT_GT(rows.total_misses(), 0u);
}

// The live-wire steady state: a ServerShard driving recv -> serve_wire ->
// send over a MockUdpSocket. After a warm-up that converges every retained
// buffer (the mock's rx ring, the shard's tx vectors, DispatchScratch), a
// uniform query stream is served with zero heap allocations.
TEST(LiveWireNoalloc, ShardRecvDispatchSendSteadyStateIsAllocationFree) {
  authoritative::AuthConfig config;
  config.log_queries = false;  // log appends allocate by design
  authoritative::AuthServer auth(
      config, std::make_unique<authoritative::ScopeDeltaPolicy>(4));
  const auto zone = Name::from_string("noalloc.example");
  auth.add_zone(zone).add(dnscore::ResourceRecord::make_a(
      zone.prepend("www"), 300, dnscore::IpAddress::v4(203, 0, 113, 10)));

  netsim::MockUdpSocket socket;
  socket.set_record_sends(false);  // recording copies each response
  live::FakeClock clock;
  live::LiveServerConfig server_config;
  server_config.batch = 4;
  server_config.recv_buffer_bytes = 512;
  live::ServerShard shard(socket, auth, clock, server_config);

  Message q = Message::make_query(0x4242, zone.prepend("www"), RRType::A);
  q.set_ecs(dnscore::EcsOption::for_query(
      dnscore::Prefix::parse("198.51.100.0/24")));
  const std::vector<std::uint8_t> wire = q.serialize();
  const netsim::SocketAddress peer{dnscore::IpAddress::v4(127, 0, 0, 1), 40000};

  // Warm-up: grow the mock's rx ring and converge every scratch capacity.
  for (int i = 0; i < 32; ++i) {
    socket.push_rx(wire, peer);
    shard.process_once();
    clock.advance_us(10);
  }

  const auto before = allocs();
  for (int i = 0; i < 200; ++i) {
    socket.push_rx(wire, peer);
    ASSERT_EQ(shard.process_once(), 1u);
    clock.advance_us(10);
  }
  EXPECT_EQ(allocs(), before)
      << "steady-state recv->dispatch->send allocated";
}

// Same contract on the client side: submit -> respond -> poll with pooled
// response buffers stays flat once capacities converge.
TEST(LiveWireNoalloc, ClientSubmitPollSteadyStateIsAllocationFree) {
  netsim::MockUdpSocket socket;
  socket.set_record_sends(false);
  live::FakeClock clock;
  live::LiveClientConfig config;
  config.server = {dnscore::IpAddress::v4(127, 0, 0, 1), 53};
  config.batch = 4;
  live::LiveClient client(config, socket, clock);

  const std::vector<std::uint8_t> wire =
      Message::make_query(0x0101, Name::from_string("www.noalloc.example"),
                          RRType::A)
          .serialize();
  std::vector<std::uint8_t> response = wire;
  response[2] |= 0x80;  // QR

  std::vector<live::Completion> done;
  done.reserve(4);
  const netsim::SocketAddress peer = config.server;
  const auto round = [&] {
    ASSERT_TRUE(client.submit(wire, 1));
    socket.push_rx(response, peer);
    done.clear();
    ASSERT_EQ(client.poll(done), 1u);
    ASSERT_TRUE(done[0].ok);
    client.pool().release(std::move(done[0].response));
    clock.advance_us(10);
  };
  for (int i = 0; i < 32; ++i) round();  // warm-up
  const auto before = allocs();
  for (int i = 0; i < 200; ++i) round();
  EXPECT_EQ(allocs(), before) << "steady-state client loop allocated";
}

}  // namespace
}  // namespace ecsdns
