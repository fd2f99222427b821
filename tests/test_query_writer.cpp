// The wire-direct query writer against the Message serializer it replaced
// on the packet path: for every query shape the resolver and the stub client
// send, the two encoders must produce identical bytes.
#include <gtest/gtest.h>

#include <array>
#include <optional>
#include <string>
#include <vector>

#include "dnscore/ecs.h"
#include "dnscore/message.h"
#include "dnscore/message_view.h"
#include "dnscore/query_writer.h"
#include "netsim/rng.h"

namespace ecsdns::dnscore {
namespace {

std::vector<std::uint8_t> via_message(const QueryHeader& header, const Name& qname,
                                      RRType qtype) {
  Message m = Message::make_query(header.id, qname, qtype);
  m.header.rd = header.rd;
  if (header.edns) {
    m.opt = OptRecord{};
    if (header.ecs != nullptr) m.set_ecs(*header.ecs);
  }
  WireWriter w;
  m.serialize_into(w);
  return std::move(w).take();
}

std::vector<std::uint8_t> via_writer(const QueryHeader& header, const Name& qname,
                                     RRType qtype) {
  WireWriter w;
  write_query(w, header, qname, qtype);
  return std::move(w).take();
}

std::string random_label(netsim::Rng& rng, std::size_t length) {
  static constexpr char kChars[] =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_";
  std::string label;
  for (std::size_t i = 0; i < length; ++i) label.push_back(kChars[rng.uniform(64)]);
  return label;
}

// Random names of random depth, plus the root and names at the 255-octet
// wire limit.
std::vector<Name> query_names(netsim::Rng& rng) {
  std::vector<Name> names = {Name{}, Name::from_string("com"),
                             Name::from_string("www.Example.COM")};
  for (int i = 0; i < 24; ++i) {
    Name name;
    const std::size_t depth = 1 + rng.uniform(8);
    for (std::size_t d = 0; d < depth; ++d) {
      const std::size_t length = 1 + rng.uniform(63);
      if (name.wire_length() + 1 + length > 255) break;
      name = name.prepend(random_label(rng, length));
    }
    names.push_back(std::move(name));
  }
  // 3 x 63-octet labels + one 61-octet label: exactly 255 octets on the wire.
  Name longest;
  for (int i = 0; i < 3; ++i) longest = longest.prepend(random_label(rng, 63));
  longest = longest.prepend(random_label(rng, 61));
  EXPECT_EQ(longest.wire_length(), 255u);
  names.push_back(std::move(longest));
  return names;
}

// Every source length of both families, the RFC 7871 opt-out, and options
// a deviant resolver might send (non-zero scope, bits past the prefix).
std::vector<EcsOption> ecs_options(netsim::Rng& rng) {
  std::vector<EcsOption> out;
  for (int len = 0; len <= 32; ++len) {
    const auto addr = IpAddress::v4(static_cast<std::uint32_t>(rng.next_u64()));
    out.push_back(EcsOption::for_query(Prefix{addr, len}));
  }
  for (int len = 0; len <= 128; ++len) {
    std::array<std::uint8_t, 16> bytes{};
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next_u64());
    out.push_back(EcsOption::for_query(Prefix{IpAddress::v6(bytes), len}));
  }
  out.push_back(EcsOption::anonymous(EcsFamily::IPv6));
  EcsOption deviant = EcsOption::for_query(Prefix::parse("192.0.2.0/24"));
  deviant.set_scope_prefix_length(24);
  deviant.set_address_bytes({192, 0, 2, 77});
  out.push_back(deviant);
  return out;
}

TEST(QueryWriter, BytesMatchTheMessageSerializer) {
  netsim::Rng rng(13);
  const auto names = query_names(rng);
  const auto options = ecs_options(rng);
  const RRType qtypes[] = {RRType::A,  RRType::AAAA, RRType::NS,  RRType::CNAME,
                           RRType::MX, RRType::TXT,  RRType::SOA, RRType::ANY};
  std::size_t compared = 0;
  for (const Name& qname : names) {
    for (const RRType qtype : qtypes) {
      for (const bool rd : {true, false}) {
        const auto id = static_cast<std::uint16_t>(rng.next_u64());
        std::vector<QueryHeader> headers = {{.id = id, .rd = rd, .edns = false},
                                            {.id = id, .rd = rd, .edns = true}};
        for (const auto& ecs : options) {
          headers.push_back({.id = id, .rd = rd, .edns = true, .ecs = &ecs});
        }
        for (const QueryHeader& header : headers) {
          const auto expected = via_message(header, qname, qtype);
          ASSERT_EQ(via_writer(header, qname, qtype), expected)
              << qname.to_string() << " " << to_string(qtype) << " rd=" << rd
              << " edns=" << header.edns
              << (header.ecs ? " " + header.ecs->to_string() : std::string{});
          ++compared;
        }
      }
    }
  }
  EXPECT_GT(compared, 10000u);
}

TEST(QueryWriter, OutputParsesBackToTheQuestion) {
  const Name qname = Name::from_string("h3.cdn.example");
  const EcsOption ecs = EcsOption::for_query(Prefix::parse("198.51.100.0/24"));
  const auto wire =
      via_writer({.id = 0xbeef, .rd = false, .ecs = &ecs}, qname, RRType::AAAA);
  const MessageView view(wire);
  EXPECT_EQ(view.id(), 0xbeef);
  EXPECT_TRUE(view.is_query());
  EXPECT_FALSE(view.rd());
  EXPECT_EQ(view.qname(), qname);
  EXPECT_EQ(view.qtype(), RRType::AAAA);
  EXPECT_EQ(view.udp_payload_size(), kEdnsUdpPayloadSize);
  EXPECT_EQ(view.ecs(), ecs);
}

TEST(QueryWriter, AppendsAfterExistingBytes) {
  // The writer appends; it does not assume an empty buffer.
  const Name qname = Name::from_string("example.org");
  WireWriter w;
  w.u8(0xaa);
  write_query(w, {.id = 7}, qname, RRType::A);
  const auto alone = via_writer({.id = 7}, qname, RRType::A);
  ASSERT_EQ(w.size(), alone.size() + 1);
  EXPECT_TRUE(std::equal(alone.begin(), alone.end(), w.data().begin() + 1));
}

}  // namespace
}  // namespace ecsdns::dnscore
