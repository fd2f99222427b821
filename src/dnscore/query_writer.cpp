#include "dnscore/query_writer.h"

#include "dnscore/edns.h"

namespace ecsdns::dnscore {
namespace {

constexpr std::uint16_t kRdMask = 0x0100;

// Patches the 16-bit length slot at `at` with the byte count written after it.
void patch_length(WireWriter& writer, std::size_t at) {
  writer.patch_u16(at, static_cast<std::uint16_t>(writer.size() - at - 2));
}

}  // namespace

void write_query(WireWriter& writer, const QueryHeader& header, const Name& qname,
                 RRType qtype) {
  writer.u16(header.id);
  // QR clear, opcode QUERY, rcode NOERROR: RD is the only flag a query sets.
  writer.u16(header.rd ? kRdMask : 0);
  writer.u16(1);  // QDCOUNT
  writer.u16(0);  // ANCOUNT
  writer.u16(0);  // NSCOUNT
  writer.u16(header.edns ? 1 : 0);  // ARCOUNT: the OPT RR
  // The question is the message's first name, so compression has nothing
  // to point at: the plain encoding is what Message's compressor emits too.
  qname.serialize(writer);
  writer.u16(static_cast<std::uint16_t>(qtype));
  writer.u16(static_cast<std::uint16_t>(RRClass::IN));
  if (!header.edns) return;

  // The OPT RR exactly as OptRecord::serialize writes a default OptRecord.
  writer.u8(0);  // root owner name
  writer.u16(static_cast<std::uint16_t>(RRType::OPT));
  writer.u16(kEdnsUdpPayloadSize);
  writer.u32(0);  // extended rcode 0, version 0, DO clear
  const std::size_t rdlength_at = writer.reserve_u16();
  if (header.ecs != nullptr) {
    writer.u16(static_cast<std::uint16_t>(EdnsOptionCode::ECS));
    const std::size_t optlen_at = writer.reserve_u16();
    header.ecs->write_payload(writer);
    patch_length(writer, optlen_at);
  }
  patch_length(writer, rdlength_at);
}

}  // namespace ecsdns::dnscore
