// UDP truncation and TCP retry (RFC 1035 §4.2, RFC 6891 §6.2.5).
#include <gtest/gtest.h>

#include "authoritative/ecs_policy.h"
#include "measurement/testbed.h"
#include "scripted_service.h"

namespace ecsdns::resolver {
namespace {

using authoritative::ScopeDeltaPolicy;
using dnscore::IpAddress;
using dnscore::Message;
using dnscore::Name;
using dnscore::RCode;
using dnscore::ResourceRecord;
using measurement::Testbed;

Name n(const char* s) { return Name::from_string(s); }

// A zone whose answer is deliberately fat: many addresses on one name.
void add_fat_answer(authoritative::AuthServer& auth, int count) {
  auto* zone = auth.find_zone(n("fat.com"));
  for (int i = 0; i < count; ++i) {
    zone->add(ResourceRecord::make_a(
        n("big.fat.com"), 60,
        IpAddress::v4(10, 9, static_cast<std::uint8_t>(i >> 8),
                      static_cast<std::uint8_t>(i & 0xff))));
  }
}

TEST(Truncation, OversizedUdpResponseGetsTcBit) {
  Testbed bed;
  auto& auth = bed.add_auth("fat", n("fat.com"), "Ashburn",
                            std::make_unique<ScopeDeltaPolicy>(0));
  add_fat_answer(auth, 80);  // ~80 x 14-byte records >> 512
  auto& client = bed.add_client("Chicago");
  // A plain (non-EDNS) query has a 512-byte limit. StubClient always sends
  // EDNS, so craft the query by hand.
  Message q = Message::make_query(1, n("big.fat.com"), dnscore::RRType::A);
  const auto wire = bed.network().round_trip(client.address(),
                                             bed.auth_address(auth), q.serialize());
  ASSERT_TRUE(wire.has_value());
  EXPECT_LE(wire->size(), 512u);
  const Message response = Message::parse({wire->data(), wire->size()});
  EXPECT_TRUE(response.header.tc);
  EXPECT_TRUE(response.answers.empty());
}

TEST(Truncation, EdnsBufferRaisesTheLimit) {
  Testbed bed;
  auto& auth = bed.add_auth("fat", n("fat.com"), "Ashburn",
                            std::make_unique<ScopeDeltaPolicy>(0));
  add_fat_answer(auth, 80);
  auto& client = bed.add_client("Chicago");
  // 4096-byte EDNS buffer: the same answer fits.
  const auto response = client.query(bed.auth_address(auth), n("big.fat.com"),
                                     dnscore::RRType::A);
  ASSERT_TRUE(response.has_value());
  EXPECT_FALSE(response->header.tc);
  EXPECT_EQ(response->answers.size(), 80u);
}

TEST(Truncation, TcpExchangeSkipsTruncation) {
  Testbed bed;
  auto& auth = bed.add_auth("fat", n("fat.com"), "Ashburn",
                            std::make_unique<ScopeDeltaPolicy>(0));
  add_fat_answer(auth, 80);
  auto& client = bed.add_client("Chicago");
  Message q = Message::make_query(1, n("big.fat.com"), dnscore::RRType::A);
  const auto before = bed.network().now();
  const auto wire = bed.network().round_trip(
      client.address(), bed.auth_address(auth), q.serialize(), /*tcp=*/true);
  ASSERT_TRUE(wire.has_value());
  const Message response = Message::parse({wire->data(), wire->size()});
  EXPECT_FALSE(response.header.tc);
  EXPECT_EQ(response.answers.size(), 80u);
  // TCP costs one extra RTT (the handshake) over plain UDP.
  const auto elapsed = bed.network().now() - before;
  const auto rtt =
      bed.network().rtt_between(client.address(), bed.auth_address(auth));
  EXPECT_EQ(elapsed, 2 * rtt);
}

TEST(Truncation, ResolverRetriesOverTcpTransparently) {
  Testbed bed;
  auto& auth = bed.add_auth("fat", n("fat.com"), "Ashburn",
                            std::make_unique<ScopeDeltaPolicy>(0));
  add_fat_answer(auth, 300);  // > 4096 bytes even with EDNS
  auto& resolver = bed.add_resolver(ResolverConfig::correct(), "Chicago");
  Message q = Message::make_query(1, n("big.fat.com"), dnscore::RRType::A);
  q.opt = dnscore::OptRecord{};
  const auto r =
      resolver.handle_client_query(q, IpAddress::parse("100.64.1.5"));
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->header.rcode, RCode::NOERROR);
  EXPECT_EQ(r->answers.size(), 300u);
  EXPECT_FALSE(r->header.tc);
}

// A TCP retry that times out is a failed exchange with that server. It must
// not turn the truncated UDP answer into the final response: that answer is
// empty, so it would pass for authoritative NoData and be negative-cached.
TEST(Truncation, TimedOutTcpRetryFailsTheExchange) {
  Testbed bed;
  auto& auth = bed.add_auth("fat", n("fat.com"), "Ashburn",
                            std::make_unique<ScopeDeltaPolicy>(0));
  add_fat_answer(auth, 3);
  auto& resolver = bed.add_resolver(ResolverConfig::correct(), "Chicago");
  // Sets TC on every UDP answer and drops every TCP connection.
  testing::script_server(bed, auth, [](const Message& query, bool via_tcp) {
    std::optional<Message> response;
    if (via_tcp) return response;
    response = Message::make_response(query);
    response->header.tc = true;
    return response;
  });
  Message q = Message::make_query(1, n("big.fat.com"), dnscore::RRType::A);
  const auto client = IpAddress::parse("100.64.1.5");
  const auto failed = resolver.handle_client_query(q, client);
  ASSERT_TRUE(failed.has_value());
  EXPECT_EQ(failed->header.rcode, RCode::SERVFAIL);

  // Nothing was cached: once the server behaves, the next query resolves.
  auth.attach(bed.network(), bed.auth_address(auth),
              bed.world().city("Ashburn").location);
  const auto recovered = resolver.handle_client_query(q, client);
  ASSERT_TRUE(recovered.has_value());
  EXPECT_EQ(recovered->header.rcode, RCode::NOERROR);
  EXPECT_EQ(recovered->answers.size(), 3u);
  EXPECT_EQ(resolver.counters().negative_cache_hits, 0u);
}

}  // namespace
}  // namespace ecsdns::resolver
