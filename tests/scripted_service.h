// A scripted stand-in for an authoritative server, for tests that need
// responses no real server in the testbed would send.
#pragma once

#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "dnscore/message.h"
#include "measurement/testbed.h"

namespace ecsdns::testing {

// Maps each query (and whether it arrived over TCP) to a response, or to
// nullopt to drop it — the sender then sees a timeout.
using Script = std::function<std::optional<dnscore::Message>(
    const dnscore::Message& query, bool via_tcp)>;

// Replaces the service at `server`'s address with `script`, placed in
// Ashburn like the tests' authoritatives. Re-attach the server
// (AuthServer::attach) to restore it.
inline void script_server(measurement::Testbed& bed,
                          const authoritative::AuthServer& server, Script script) {
  bed.network().attach(
      bed.auth_address(server), bed.world().city("Ashburn").location,
      [script = std::move(script)](const netsim::Datagram& dgram)
          -> std::optional<std::vector<std::uint8_t>> {
        const auto response =
            script(dnscore::Message::parse(dgram.payload), dgram.via_tcp);
        if (!response) return std::nullopt;
        return response->serialize();
      });
}

}  // namespace ecsdns::testing
