#include "dnscore/message_view.h"

#include <stdexcept>

#include "dnscore/contracts.h"

namespace ecsdns::dnscore {
namespace {

constexpr std::uint16_t kQrMask = 0x8000;
constexpr std::uint16_t kAaMask = 0x0400;
constexpr std::uint16_t kTcMask = 0x0200;
constexpr std::uint16_t kRdMask = 0x0100;
constexpr std::uint16_t kRaMask = 0x0080;
constexpr std::uint16_t kAdMask = 0x0020;
constexpr std::uint16_t kCdMask = 0x0010;

// The skip_* functions below are validation mirrors of parse_rdata /
// ResourceRecord::parse: same reader calls in the same order, same throw
// conditions, no materialization. Any edit to the parsers must be mirrored
// here — the differential fuzz oracle will catch a drift, but don't make it.

void check_rdata_bounds(const WireReader& reader, std::size_t end,
                        const char* what) {
  if (reader.offset() > end) {
    throw WireFormatError(std::string("rdata overruns RDLENGTH in ") + what);
  }
}

void skip_rdata(RRType type, std::uint16_t rdlength, WireReader& reader) {
  const std::size_t end = reader.offset() + rdlength;
  switch (type) {
    case RRType::A:
      if (rdlength != 4) throw WireFormatError("A rdata must be 4 octets");
      reader.skip(4);
      return;
    case RRType::AAAA:
      if (rdlength != 16) throw WireFormatError("AAAA rdata must be 16 octets");
      reader.skip(16);
      return;
    case RRType::NS:
      Name::skip(reader);
      check_rdata_bounds(reader, end, "NS");
      return;
    case RRType::CNAME:
      Name::skip(reader);
      check_rdata_bounds(reader, end, "CNAME");
      return;
    case RRType::PTR:
      Name::skip(reader);
      check_rdata_bounds(reader, end, "PTR");
      return;
    case RRType::MX:
      reader.skip(2);  // preference
      Name::skip(reader);
      check_rdata_bounds(reader, end, "MX");
      return;
    case RRType::TXT: {
      std::size_t consumed = 0;
      while (consumed < rdlength) {
        const std::uint8_t len = reader.u8();
        reader.skip(len);
        consumed += 1u + len;
      }
      if (consumed != rdlength) throw WireFormatError("TXT rdata length mismatch");
      return;
    }
    case RRType::SOA:
      Name::skip(reader);  // mname
      Name::skip(reader);  // rname
      for (int i = 0; i < 5; ++i) reader.skip(4);  // serial..minimum
      check_rdata_bounds(reader, end, "SOA");
      return;
    default:
      reader.skip(rdlength);
      return;
  }
}

// Skips class/TTL/RDLENGTH/rdata; the caller already consumed owner + TYPE.
void skip_record_tail(RRType type, WireReader& reader) {
  reader.skip(2);  // class
  reader.skip(4);  // ttl
  const std::uint16_t rdlength = reader.u16();
  const std::size_t end = reader.offset() + rdlength;
  skip_rdata(type, rdlength, reader);
  reader.seek(end);
}

void skip_record(WireReader& reader) {
  Name::skip(reader);
  const RRType type = static_cast<RRType>(reader.u16());
  skip_record_tail(type, reader);
}

}  // namespace

MessageView::MessageView(std::span<const std::uint8_t> wire) : wire_(wire) {
  WireReader r(wire);
  id_ = r.u16();
  const std::uint16_t flags = r.u16();
  qr_ = (flags & kQrMask) != 0;
  opcode_ = static_cast<Opcode>((flags >> 11) & 0x0f);
  aa_ = (flags & kAaMask) != 0;
  tc_ = (flags & kTcMask) != 0;
  rd_ = (flags & kRdMask) != 0;
  ra_ = (flags & kRaMask) != 0;
  ad_ = (flags & kAdMask) != 0;
  cd_ = (flags & kCdMask) != 0;
  std::uint16_t rcode_bits = flags & 0x0f;

  qdcount_ = r.u16();
  ancount_ = r.u16();
  nscount_ = r.u16();
  arcount_ = r.u16();

  for (std::uint16_t i = 0; i < qdcount_; ++i) {
    const std::size_t name_at = r.offset();
    Name::skip(r);
    const RRType qtype = static_cast<RRType>(r.u16());
    const RRClass qclass = static_cast<RRClass>(r.u16());
    if (i == 0) {
      qname_offset_ = name_at;
      qtype_ = qtype;
      qclass_ = qclass;
    }
  }
  answers_offset_ = r.offset();
  for (std::uint16_t i = 0; i < ancount_; ++i) skip_record(r);
  authorities_offset_ = r.offset();
  for (std::uint16_t i = 0; i < nscount_; ++i) skip_record(r);
  additional_offset_ = r.offset();
  for (std::uint16_t i = 0; i < arcount_; ++i) {
    const std::size_t labels = Name::skip(r);
    const RRType type = static_cast<RRType>(r.u16());
    if (type == RRType::OPT) {
      if (labels != 0) throw WireFormatError("OPT record with non-root owner");
      if (has_opt_) throw WireFormatError("duplicate OPT record");
      has_opt_ = true;
      // Mirror of OptRecord::parse_body, recording field values and the
      // first ECS payload location instead of copying option payloads.
      udp_payload_size_ = r.u16();
      const std::uint32_t ttl = r.u32();
      extended_rcode_ = static_cast<std::uint8_t>(ttl >> 24);
      edns_version_ = static_cast<std::uint8_t>((ttl >> 16) & 0xff);
      dnssec_ok_ = (ttl & 0x8000u) != 0;
      const std::uint16_t rdlength = r.u16();
      const std::size_t end = r.offset() + rdlength;
      while (r.offset() < end) {
        if (end - r.offset() < 4) {
          throw WireFormatError("truncated EDNS option header");
        }
        const std::uint16_t code = r.u16();
        const std::uint16_t optlen = r.u16();
        if (r.offset() + optlen > end) {
          throw WireFormatError("EDNS option overruns OPT rdata");
        }
        if (!has_ecs_ &&
            code == static_cast<std::uint16_t>(EdnsOptionCode::ECS)) {
          has_ecs_ = true;
          ecs_offset_ = r.offset();
          ecs_length_ = optlen;
        }
        r.skip(optlen);
      }
      rcode_bits = static_cast<std::uint16_t>(
          rcode_bits | (static_cast<std::uint16_t>(extended_rcode_) << 4));
    } else {
      skip_record_tail(type, r);
    }
  }
  rcode_ = static_cast<RCode>(rcode_bits);
  if (!r.at_end()) throw WireFormatError("trailing bytes after message");
}

Name MessageView::qname() const {
  if (qdcount_ == 0) throw std::logic_error("message has no question");
  WireReader r(wire_);
  r.seek(qname_offset_);
  return Name::parse(r);
}

std::span<const std::uint8_t> MessageView::ecs_payload() const noexcept {
  if (!has_ecs_) return {};
  return wire_.subspan(ecs_offset_, ecs_length_);
}

std::optional<EcsOption> MessageView::ecs() const {
  if (!has_ecs_) return std::nullopt;
  return EcsOption::parse_payload(ecs_payload());
}

Name RecordView::owner() const {
  WireReader r(wire_);
  r.seek(owner_offset_);
  return Name::parse(r);
}

Name RecordView::rdata_name() const {
  WireReader r(wire_);
  r.seek(rdata_offset_);
  return Name::parse(r);
}

ResourceRecord RecordView::to_record() const {
  WireReader r(wire_);
  r.seek(owner_offset_);
  return ResourceRecord::parse(r);
}

void RecordRange::Iterator::advance() {
  while (left_ > 0) {
    --left_;
    WireReader r(wire_);
    r.seek(next_);
    record_.wire_ = wire_;
    record_.owner_offset_ = next_;
    Name::skip(r);
    record_.type_ = static_cast<RRType>(r.u16());
    record_.rrclass_ = static_cast<RRClass>(r.u16());
    record_.ttl_ = r.u32();
    record_.rdlength_ = r.u16();
    record_.rdata_offset_ = r.offset();
    next_ = r.offset() + record_.rdlength_;
    if (!skip_opt_ || record_.type_ != RRType::OPT) return;
  }
  done_ = true;
}

}  // namespace ecsdns::dnscore
