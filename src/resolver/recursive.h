// The recursive (egress) resolver engine.
//
// Speaks real DNS wire format on the simulated network: accepts client
// queries, performs iterative resolution from root hints (referral walking
// with an NS cache), maintains the RFC 7871 ECS answer cache, and applies
// the configured ECS behavior — compliant or any of the deviant behaviors
// the paper catalogs — when talking to authoritative servers.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "dnscore/flat_hash.h"
#include "dnscore/hashing.h"
#include "dnscore/message.h"
#include "dnscore/message_view.h"
#include "netsim/network.h"
#include "obs/metrics.h"
#include "resolver/cache.h"
#include "resolver/config.h"

namespace ecsdns::resolver {

using dnscore::Message;
using dnscore::Question;
using dnscore::RRType;

// What the resolver believes about the client it is acting for — either the
// immediate sender's full address, or a subnet announced via client ECS.
struct ClientIdentity {
  IpAddress address;
  int bits = 32;  // how many leading bits of `address` are meaningful
  bool from_client_ecs = false;
  // The client opted out of ECS (source prefix length 0) and the resolver
  // is configured to honor that by omitting the option upstream.
  bool opted_out = false;
};

// Counters the experiments and tests read.
struct ResolverCounters {
  std::uint64_t client_queries = 0;
  std::uint64_t upstream_queries = 0;
  std::uint64_t upstream_ecs_queries = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t negative_cache_hits = 0;
  // Retries without EDNS after a FORMERR (pre-RFC 6891 servers).
  std::uint64_t edns_fallbacks = 0;
  std::uint64_t servfails = 0;
  std::uint64_t referrals_followed = 0;
  std::uint64_t cname_restarts = 0;
};

class RecursiveResolver {
 public:
  RecursiveResolver(ResolverConfig config, netsim::Network& network,
                    IpAddress own_address, std::vector<IpAddress> root_hints);

  const ResolverConfig& config() const noexcept { return config_; }
  ResolverConfig& mutable_config() noexcept { return config_; }
  const IpAddress& address() const noexcept { return own_address_; }

  // Serves one client query end to end; nullopt drops the query.
  std::optional<Message> handle_client_query(const Message& query,
                                             const IpAddress& sender);

  // Registers the resolver on the network.
  void attach(const netsim::GeoPoint& location);

  const ResolverCounters& counters() const noexcept { return counters_; }
  void reset_counters() { counters_ = ResolverCounters{}; }
  EcsCache& cache() noexcept { return cache_; }

 private:
  struct Resolution {
    dnscore::RCode rcode = dnscore::RCode::SERVFAIL;
    std::vector<dnscore::ResourceRecord> answers;
    // Scope to echo to the client (nullopt: no ECS in the response).
    std::optional<int> echo_scope;
  };

  ClientIdentity identify_client(const Message& query, const IpAddress& sender);
  // The ECS option to attach upstream, if any, per the probing strategy and
  // prefix policy. `infrastructure_hop` marks queries to root/TLD servers,
  // which compliant resolvers never send ECS to.
  std::optional<dnscore::EcsOption> upstream_ecs(const Question& question,
                                                 const ClientIdentity& identity,
                                                 bool infrastructure_hop,
                                                 bool cache_missed);
  // Builds the announced prefix from a client identity (applies truncation,
  // the jam-last-octet deviation, and — when enabled — the per-zone scope
  // adaptation learned from earlier responses).
  dnscore::EcsOption build_option(const Question& question,
                                  const ClientIdentity& identity) const;
  std::optional<ClientIdentity> self_identity() const;

  Resolution resolve(const Question& question, const ClientIdentity& identity);

  // What an accepted upstream response tells the descent.
  enum class ResponseKind { kAnswer, kReferral, kNoData, kNxDomain, kError };
  // An accepted upstream response, read in place: the pooled wire buffer
  // and a view over it (a moved vector keeps its heap block, so the view
  // survives moves of this struct). Whoever ends up holding it releases
  // `wire` back to the network's pool.
  struct UpstreamResponse {
    std::vector<std::uint8_t> wire;
    dnscore::MessageView view;
    // The response's ECS option, decoded into upstream_ecs_; null if absent.
    const dnscore::EcsOption* ecs = nullptr;
    ResponseKind kind = ResponseKind::kError;
  };
  // The query a response must answer (RFC 5452 §9-10 acceptance).
  struct SentQuery {
    std::uint16_t id = 0;
    const dnscore::Name& qname;
    RRType qtype = RRType::A;
  };
  // One iterative descent for a single owner name (no CNAME restarts).
  // Returns an answer, NoData, NXDOMAIN or error response; nullopt when
  // every server failed or the referral chain ran too deep.
  std::optional<UpstreamResponse> query_authoritatives(const Question& question,
                                                       const ClientIdentity& identity);
  // Validates a round trip's result against `sent`. Timeouts, malformed
  // responses and responses that do not answer `sent` are failed
  // exchanges: nullopt, with the buffer returned to the pool.
  std::optional<UpstreamResponse> accept_response(
      std::optional<std::vector<std::uint8_t>> wire, const SentQuery& sent);
  void release(std::optional<UpstreamResponse>& response);
  // Answer, NXDOMAIN and error go back to the client, a referral is
  // followed, NoData ends the descent.
  static ResponseKind classify(const dnscore::MessageView& view);

  // Servers tried per hop; a referral's addresses beyond this many (in
  // referral order) are never tried.
  static constexpr std::size_t kMaxServersPerHop = 16;
  struct NsSet {
    std::size_t zone_labels = 0;  // depth of the delegation these cover
    // Points into ns_cache_ (or root_hints_): valid until ns_cache_ changes.
    std::span<const IpAddress> addresses;
  };
  struct ServerList {
    std::array<IpAddress, kMaxServersPerHop> servers;
    std::size_t count = 0;
    std::span<const IpAddress> span() const noexcept { return {servers.data(), count}; }
  };
  NsSet nameservers_for(const dnscore::Name& qname) const;
  void cache_referral(const dnscore::MessageView& response);
  void cache_answer(const Question& question, const ClientIdentity& identity,
                    const UpstreamResponse& response,
                    std::vector<dnscore::ResourceRecord> answers, Resolution& out);
  bool name_matches_probe_list(const dnscore::Name& qname) const;
  bool zone_whitelisted(const dnscore::Name& qname) const;
  bool caching_disabled_for(const dnscore::Name& qname) const;

  ResolverConfig config_;
  netsim::Network& network_;
  IpAddress own_address_;
  std::vector<IpAddress> root_hints_;

  EcsCache cache_;
  struct NsEntry {
    std::vector<IpAddress> addresses;
    SimTime expiry = 0;
  };
  dnscore::FlatHashMap<dnscore::Name, NsEntry, dnscore::NameHash> ns_cache_;
  // ECS option of the most recently accepted upstream response, decoded in
  // place so its address buffer is reused from one response to the next.
  dnscore::EcsOption upstream_ecs_;

  // Negative cache (RFC 2308): NXDOMAIN / NoData answers are remembered so
  // repeated misses do not hammer the authoritatives. Negative answers are
  // never client-tailored, so entries are global.
  struct NegativeKey {
    dnscore::Name qname;
    RRType qtype;
    bool operator==(const NegativeKey&) const = default;
  };
  struct NegativeKeyHash {
    // Shared with the lookup in resolve(), which probes by (qname, qtype)
    // without copying the name into a key.
    static std::size_t hash_of(const dnscore::Name& qname, RRType qtype) noexcept {
      return dnscore::hash_combine(qname.hash(), static_cast<std::size_t>(qtype));
    }
    std::size_t operator()(const NegativeKey& k) const noexcept {
      return hash_of(k.qname, k.qtype);
    }
  };
  struct NegativeEntry {
    dnscore::RCode rcode = dnscore::RCode::NXDOMAIN;
    SimTime expiry = 0;
  };
  dnscore::FlatHashMap<NegativeKey, NegativeEntry, NegativeKeyHash> negative_cache_;

  // Per-SLD learned authoritative scope (adapt_source_to_scope extension).
  std::unordered_map<dnscore::Name, int, dnscore::NameHash> learned_scope_;

  SimTime last_probe_ = -1;
  std::uint16_t next_id_ = 1;
  ResolverCounters counters_;

  // Registry mirrors (see src/obs): `counters_` stays the per-instance
  // view the tests and experiments read, while the global registry
  // aggregates the same events across every resolver for --metrics-out.
  struct Metrics {
    obs::CounterHandle client_queries;
    obs::CounterHandle upstream_queries;
    obs::CounterHandle upstream_ecs_queries;
    obs::CounterHandle cache_hits;
    obs::CounterHandle negative_cache_hits;
    obs::CounterHandle edns_fallbacks;
    obs::CounterHandle servfails;
    obs::CounterHandle referrals_followed;
    obs::CounterHandle cname_restarts;
  };
  Metrics metrics_;

  // Smoothed per-nameserver RTT (BIND-style server selection): candidates
  // are tried fastest-first, unknown servers optimistically early, and
  // timeouts penalize heavily. Only meaningful when the network runs in
  // serial-clock mode; otherwise every sample is 0 and selection degrades
  // gracefully to referral order.
  dnscore::FlatHashMap<IpAddress, double, dnscore::IpAddressHash> srtt_us_;
  void note_rtt(const IpAddress& server, double sample_us);
  void order_by_srtt(std::span<const IpAddress> servers, ServerList& out) const;
};

}  // namespace ecsdns::resolver
