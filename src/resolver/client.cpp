#include "resolver/client.h"

#include "dnscore/message_view.h"
#include "dnscore/query_writer.h"

namespace ecsdns::resolver {

std::optional<std::vector<std::uint8_t>> StubClient::exchange(
    const IpAddress& server, const Name& qname, RRType qtype,
    const std::optional<dnscore::EcsOption>& ecs) {
  auto query_wire = transport_->pool().acquire();
  {
    dnscore::WireWriter writer(query_wire);
    dnscore::write_query(writer, {.id = next_id_++, .ecs = ecs ? &*ecs : nullptr},
                         qname, qtype);
  }
  auto wire = transport_->exchange(server, query_wire);
  transport_->pool().release(std::move(query_wire));
  return wire;
}

std::optional<Message> StubClient::query(const IpAddress& server, const Name& qname,
                                         RRType qtype,
                                         const std::optional<dnscore::EcsOption>& ecs) {
  auto wire = exchange(server, qname, qtype, ecs);
  if (!wire) return std::nullopt;
  std::optional<Message> parsed;
  try {
    parsed = Message::parse({wire->data(), wire->size()});
  } catch (const dnscore::WireFormatError&) {
  }
  transport_->pool().release(std::move(*wire));
  return parsed;
}

std::optional<dnscore::RCode> StubClient::probe(
    const IpAddress& server, const Name& qname, RRType qtype,
    const std::optional<dnscore::EcsOption>& ecs) {
  auto wire = exchange(server, qname, qtype, ecs);
  if (!wire) return std::nullopt;
  std::optional<dnscore::RCode> rcode;
  try {
    rcode = dnscore::MessageView({wire->data(), wire->size()}).rcode();
  } catch (const dnscore::WireFormatError&) {
  }
  transport_->pool().release(std::move(*wire));
  return rcode;
}

}  // namespace ecsdns::resolver
