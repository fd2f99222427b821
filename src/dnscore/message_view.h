// Lazy, bounds-checked read-only view over a DNS message in wire form.
//
// MessageView is the zero-copy half of the packet path: services that only
// route on the question and the ECS option (the authoritative dispatch, the
// forwarder's strip decision, the measurement probers) construct a view
// instead of a full Message and skip materializing record vectors, Names,
// and option payloads for sections they never read.
//
// The constructor walks the ENTIRE message eagerly with exactly the
// validation rules of Message::parse — same reader primitives, same order,
// same WireFormatError conditions — so a wire buffer is accepted by
// MessageView if and only if Message::parse accepts it (the differential
// oracle in tests/ and fuzz/ holds the two implementations to that
// contract). What the walk skips is materialization: it records offsets
// into the buffer instead of building Names, records, and option vectors.
// qname() and ecs() decode on demand from the recorded offsets, and the
// record walks (answers(), authorities(), additional()) re-walk the sections
// from the recorded section starts.
//
// Lifetime: the view borrows the buffer. The caller keeps the wire bytes
// alive and unmodified for as long as the view (or any span returned from
// it) is in use — in this codebase that is trivially true inside a netsim
// service callback, where the datagram payload outlives the synchronous
// handler.
#pragma once

#include <cstdint>
#include <iterator>
#include <optional>
#include <span>

#include "dnscore/annotations.h"
#include "dnscore/ecs.h"
#include "dnscore/message.h"

namespace ecsdns::dnscore {

// One resource record of a validated message: the fixed fields decoded, the
// owner name and rdata left in the wire buffer (borrowed, like the view's).
class RecordView {
 public:
  RRType type() const noexcept { return type_; }
  RRClass rrclass() const noexcept { return rrclass_; }
  std::uint32_t ttl() const noexcept { return ttl_; }
  // The RDLENGTH octets. Names inside may be compression pointers into the
  // whole message, so decode those with rdata_name().
  std::span<const std::uint8_t> rdata() const noexcept {
    return wire_.subspan(rdata_offset_, rdlength_);
  }

  // The owner name, decompressed.
  Name owner() const;
  // The name the rdata starts with: the target of an NS, CNAME or PTR.
  Name rdata_name() const;
  // The record exactly as ResourceRecord::parse reads it.
  ECSDNS_MAY_BLOCK ResourceRecord to_record() const;

 private:
  friend class RecordRange;

  std::span<const std::uint8_t> wire_;
  std::size_t owner_offset_ = 0;
  std::size_t rdata_offset_ = 0;
  std::uint16_t rdlength_ = 0;
  RRType type_ = RRType::A;
  RRClass rrclass_ = RRClass::IN;
  std::uint32_t ttl_ = 0;
};

// The records of one section, in wire order. Walking decodes each record's
// fixed fields in place and allocates nothing.
class RecordRange {
 public:
  class Iterator {
   public:
    using value_type = RecordView;
    using difference_type = std::ptrdiff_t;

    const RecordView& operator*() const noexcept { return record_; }
    const RecordView* operator->() const noexcept { return &record_; }
    Iterator& operator++() {
      advance();
      return *this;
    }
    bool operator==(std::default_sentinel_t) const noexcept { return done_; }

   private:
    friend class RecordRange;
    explicit Iterator(const RecordRange& range)
        : wire_(range.wire_), next_(range.offset_), left_(range.count_),
          skip_opt_(range.skip_opt_) {
      advance();
    }
    // Decodes the next record (passing over OPT when asked) or ends.
    ECSDNS_NOALLOC void advance();

    std::span<const std::uint8_t> wire_;
    std::size_t next_;
    std::uint16_t left_;
    bool skip_opt_;
    bool done_ = false;
    RecordView record_;
  };

  RecordRange(std::span<const std::uint8_t> wire, std::size_t offset,
              std::uint16_t count, bool skip_opt) noexcept
      : wire_(wire), offset_(offset), count_(count), skip_opt_(skip_opt) {}

  Iterator begin() const { return Iterator(*this); }
  std::default_sentinel_t end() const noexcept { return {}; }

 private:
  std::span<const std::uint8_t> wire_;
  std::size_t offset_;
  std::uint16_t count_;
  bool skip_opt_;
};

class MessageView {
 public:
  // Validates the whole message; throws WireFormatError on any input that
  // Message::parse would reject. The walk is the zero-copy contract: it
  // records offsets and never materializes, so it must not allocate
  // (except to build the diagnostic when throwing on malformed input).
  ECSDNS_NOALLOC explicit MessageView(std::span<const std::uint8_t> wire);

  std::span<const std::uint8_t> wire() const noexcept { return wire_; }

  // --- header ---
  std::uint16_t id() const noexcept { return id_; }
  bool qr() const noexcept { return qr_; }
  Opcode opcode() const noexcept { return opcode_; }
  bool aa() const noexcept { return aa_; }
  bool tc() const noexcept { return tc_; }
  bool rd() const noexcept { return rd_; }
  bool ra() const noexcept { return ra_; }
  bool ad() const noexcept { return ad_; }
  bool cd() const noexcept { return cd_; }
  // Includes the extended-rcode bits from the OPT TTL, like Message.
  RCode rcode() const noexcept { return rcode_; }
  bool is_query() const noexcept { return !qr_; }
  bool is_response() const noexcept { return qr_; }

  std::uint16_t question_count() const noexcept { return qdcount_; }
  std::uint16_t answer_count() const noexcept { return ancount_; }
  std::uint16_t authority_count() const noexcept { return nscount_; }
  // Raw ARCOUNT from the header; includes the OPT pseudo-RR if present.
  std::uint16_t additional_count() const noexcept { return arcount_; }

  // --- first question (the only one DNS software acts on) ---
  // Type/class are pre-decoded; the name is parsed on demand.
  Name qname() const;  // requires question_count() >= 1
  RRType qtype() const noexcept { return qtype_; }
  RRClass qclass() const noexcept { return qclass_; }

  // --- EDNS / ECS ---
  bool has_opt() const noexcept { return has_opt_; }
  std::uint16_t udp_payload_size() const noexcept { return udp_payload_size_; }
  std::uint8_t edns_version() const noexcept { return edns_version_; }
  bool dnssec_ok() const noexcept { return dnssec_ok_; }
  std::uint8_t extended_rcode() const noexcept { return extended_rcode_; }

  // True when an ECS option TLV is present — a pure presence probe, no
  // payload decode (agrees with Message::has_ecs()).
  bool has_ecs() const noexcept { return has_ecs_; }
  // The first ECS option's raw payload (empty span when absent).
  ECSDNS_NOALLOC std::span<const std::uint8_t> ecs_payload() const noexcept;
  // Decodes the ECS option. Throws WireFormatError on a present but
  // structurally short payload — exactly when Message::ecs() would.
  std::optional<EcsOption> ecs() const;

  // --- records ---
  // The constructor validated every record, so these walks never throw.
  // additional() leaves out the OPT pseudo-RR, as Message::additional does.
  RecordRange answers() const noexcept {
    return {wire_, answers_offset_, ancount_, false};
  }
  RecordRange authorities() const noexcept {
    return {wire_, authorities_offset_, nscount_, false};
  }
  RecordRange additional() const noexcept {
    return {wire_, additional_offset_, arcount_, true};
  }

  // Full materialization for callers that outgrow the view. Never throws
  // for a successfully constructed view (the constructor already ran the
  // same validation). Leaves the zero-copy regime — allocates freely.
  ECSDNS_MAY_BLOCK Message to_message() const { return Message::parse(wire_); }

 private:
  std::span<const std::uint8_t> wire_;

  std::uint16_t id_ = 0;
  bool qr_ = false, aa_ = false, tc_ = false, rd_ = false, ra_ = false;
  bool ad_ = false, cd_ = false;
  Opcode opcode_ = Opcode::QUERY;
  RCode rcode_ = RCode::NOERROR;
  std::uint16_t qdcount_ = 0, ancount_ = 0, nscount_ = 0, arcount_ = 0;

  std::size_t qname_offset_ = 0;
  std::size_t answers_offset_ = 0;
  std::size_t authorities_offset_ = 0;
  std::size_t additional_offset_ = 0;
  RRType qtype_ = RRType::A;
  RRClass qclass_ = RRClass::IN;

  bool has_opt_ = false;
  std::uint16_t udp_payload_size_ = 0;
  std::uint8_t extended_rcode_ = 0;
  std::uint8_t edns_version_ = 0;
  bool dnssec_ok_ = false;

  bool has_ecs_ = false;
  std::size_t ecs_offset_ = 0;
  std::uint16_t ecs_length_ = 0;
};

}  // namespace ecsdns::dnscore
