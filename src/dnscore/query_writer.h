// Wire-direct encoding of outgoing DNS queries.
//
// A resolver or stub sends one shape of query over and over: a single
// question, RD set or clear, and optionally an OPT RR carrying an ECS
// option. write_query encodes that shape straight into a WireWriter — on the
// packet path, a pooled buffer — without building a Message first. Its bytes
// are identical to Message::make_query (+ opt, set_ecs) + serialize_into;
// tests/test_query_writer.cpp holds the two encoders to that.
#pragma once

#include <cstdint>

#include "dnscore/annotations.h"
#include "dnscore/ecs.h"
#include "dnscore/name.h"
#include "dnscore/types.h"
#include "dnscore/wire.h"

namespace ecsdns::dnscore {

struct QueryHeader {
  std::uint16_t id = 0;
  bool rd = true;
  // Attach an OPT RR with OptRecord's defaults: UDP payload 4096, EDNS
  // version 0, DO clear.
  bool edns = true;
  // The ECS option to carry in the OPT RR; ignored when `edns` is false.
  const EcsOption* ecs = nullptr;
};

// Appends one query for (qname, qtype, IN) to `writer`. Steady-state
// noalloc on a pooled buffer whose capacity has converged.
ECSDNS_NOALLOC void write_query(WireWriter& writer, const QueryHeader& header,
                                const Name& qname, RRType qtype);

}  // namespace ecsdns::dnscore
