// Domain names (RFC 1035 §3.1) with wire encoding, decompression, and
// case-insensitive comparison semantics.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "dnscore/annotations.h"
#include "dnscore/flat_hash.h"
#include "dnscore/wire.h"

namespace ecsdns::dnscore {

// An absolute domain name stored as ONE contiguous buffer of labels in wire
// form — [len][octets][len][octets]... without the terminating root byte.
// Names whose packed form fits kInlineCapacity octets (the overwhelming
// majority of real hostnames) live entirely inside the object; longer names
// spill to a single exact-size heap block. An empty buffer is the root
// name ".".
//
// Invariants enforced on construction:
//   * each label is 1..63 octets,
//   * total wire length (labels + separators + root byte) <= 255 octets.
// Comparison and hashing are ASCII-case-insensitive per RFC 1035 §2.3.3.
// The hash is computed once on first use and cached; Name is immutable
// after construction (assignment replaces the whole value, carrying the
// source's cached hash with it), so the cache can never go stale.
class Name {
 public:
  // Packed octets stored inline; chosen so sizeof(Name) is one cache line.
  // A name packs to wire_length()-1 octets, so everything up to 47 octets
  // on the wire — e.g. any name of at most 45 characters — avoids the heap.
  static constexpr std::size_t kInlineCapacity = 46;

  Name() noexcept {}  // the root name "."
  Name(const Name& other);
  Name(Name&& other) noexcept;
  Name& operator=(const Name& other);
  Name& operator=(Name&& other) noexcept;
  ~Name() { release(); }

  // Parses presentation format. Accepted grammar:
  //
  //   name   = "." | label *("." label) ["."]
  //   label  = 1*63 octets, where a backslash escapes the next octet:
  //            "\." is a literal dot inside a label, "\\" a literal
  //            backslash, and "\X" for any other X is X itself. Decimal
  //            escapes ("\065") are NOT supported.
  //
  // Throws WireFormatError on empty labels, a trailing backslash, labels
  // over 63 octets, or names whose wire form exceeds 255 octets.
  // to_string() re-escapes "." and "\" so from_string(to_string(n)) == n.
  static Name from_string(const std::string& text);

  // Reads a (possibly compressed) name from the current reader position.
  // Compression pointers may only point backwards; loops and forward
  // pointers raise WireFormatError (RFC 1035 §4.1.4).
  static Name parse(WireReader& reader);

  // Walks past a wire-format name, enforcing exactly the validation rules
  // of parse() — pointer direction, jump bound, reserved label types, the
  // 255-octet decompressed limit — without materializing a Name. Returns
  // the label count of the (decompressed) name; the reader ends up where
  // parse() would leave it. MessageView's lazy decode is built on this, so
  // skip() and parse() must accept and reject identical inputs.
  static std::size_t skip(WireReader& reader);

  // Label `i` (0 = leftmost), viewing the packed buffer — no allocation.
  // The view is invalidated by assigning to or destroying this Name.
  std::string_view label(std::size_t i) const noexcept;
  // All labels, materialized. Prefer label()/label_count() on hot paths.
  std::vector<std::string> labels() const;
  bool is_root() const noexcept { return label_count_ == 0; }
  std::size_t label_count() const noexcept { return label_count_; }

  // True when the packed form lives inside the object (no heap block).
  bool is_inline() const noexcept { return packed_size_ <= kInlineCapacity; }

  // Wire length in octets if written without compression.
  std::size_t wire_length() const noexcept { return packed_size_ + 1u; }

  // Writes the uncompressed wire form.
  void serialize(WireWriter& writer) const;

  // Writes the wire form using RFC 1035 §4.1.4 compression against names
  // already emitted through the same table: the longest previously written
  // suffix is replaced by a pointer, and newly written label positions are
  // recorded for later names.
  //
  // The table keys on views into the names' packed buffers (hashed and
  // compared case-insensitively), so finding and remembering a suffix never
  // allocates or copies label text. Lifetime contract: every Name passed to
  // remember() must outlive the table — trivially true inside
  // Message::serialize, where the table is scoped to one message whose
  // names it indexes.
  class CompressionTable {
   public:
    // Offsets beyond 0x3fff cannot be pointed at (14-bit pointers).
    std::optional<std::uint16_t> find(const Name& name, std::size_t from_label) const;
    void remember(const Name& name, std::size_t from_label, std::size_t offset);
    // Resets the index for a new message while keeping its capacity, so one
    // table can serve every serialize_into call on a dispatch path without
    // re-allocating per packet.
    void clear() noexcept { offsets_.clear(); }

   private:
    friend class Name;
    // A name suffix in packed wire form: [len][octets]... to the buffer end.
    struct SuffixRef {
      const std::uint8_t* data = nullptr;
      std::uint16_t size = 0;
      bool operator==(const SuffixRef& other) const noexcept;
    };
    struct SuffixHash {
      std::size_t operator()(const SuffixRef& s) const noexcept;
    };
    std::optional<std::uint16_t> find_suffix(SuffixRef suffix) const;
    // Grows the suffix index — the one allocating step of compressed
    // serialization. MAY_BLOCK marks the boundary so noalloc callers
    // justify it at the call site instead of blanket-suppressing the
    // generic FlatHashMap growth underneath.
    ECSDNS_MAY_BLOCK void remember_suffix(SuffixRef suffix, std::size_t offset);

    FlatHashMap<SuffixRef, std::uint16_t, SuffixHash> offsets_;
  };
  void serialize_compressed(WireWriter& writer, CompressionTable& table) const;

  // Presentation form without the trailing dot except for the root (".").
  // Dots and backslashes inside a label are escaped ("\." / "\\") so the
  // output always parses back to the same name.
  std::string to_string() const;

  // True if this name equals `zone` or is a subdomain of it.
  bool is_subdomain_of(const Name& zone) const;

  // Returns the name without its leftmost label; throws std::logic_error on
  // the root name.
  Name parent() const;

  // The two most senior labels, e.g. "cnn.com" for "edition.cnn.com"; used
  // for the paper's SLD statistics. Returns the name itself if it has fewer
  // than two labels.
  Name second_level_domain() const { return suffix(2); }

  // The `labels` most senior labels, e.g. suffix(3) of "a.b.example.com" is
  // "b.example.com". Returns the name itself if it has fewer labels.
  Name suffix(std::size_t labels) const;

  // hash() and operator== for the ancestor that starts at label
  // `from_label` (0 = this name, label_count() = the root), computed in
  // place. A table keyed by Name can be probed for every ancestor of a name
  // this way without materializing any of them.
  std::size_t suffix_hash(std::size_t from_label) const noexcept;
  bool suffix_equals(std::size_t from_label, const Name& other) const noexcept;

  // Prepends one label, e.g. Name("example.com").prepend("www").
  Name prepend(std::string_view label) const;

  bool operator==(const Name& other) const noexcept;
  bool operator!=(const Name& other) const noexcept { return !(*this == other); }
  // Canonical ordering (case-insensitive, label-wise from the right) so
  // Name can key ordered containers.
  bool operator<(const Name& other) const noexcept;

  // Case-insensitive FNV-1a over the canonical lowercase form. Computed
  // lazily on first call and cached (an atomic store, so concurrent readers
  // of a shared const Name are race-free); every later call is one load.
  std::size_t hash() const noexcept;

 private:
  // Adopts `size` packed octets holding `labels` validated labels. The
  // octets are copied; callers guarantee they came from an already
  // validated name (every factory funnels through validated paths).
  Name(const std::uint8_t* packed, std::size_t size, std::size_t labels);

  const std::uint8_t* packed() const noexcept {
    return is_inline() ? storage_.inline_octets : storage_.heap;
  }
  std::uint8_t* mutable_packed() noexcept {
    return is_inline() ? storage_.inline_octets : storage_.heap;
  }
  // Byte offset of label `i` in the packed buffer.
  std::size_t label_offset(std::size_t i) const noexcept;
  void adopt(const std::uint8_t* packed, std::size_t size, std::size_t labels);
  void release() noexcept;

  // Sentinel for "hash not computed yet"; a real hash that lands on 0 is
  // remapped to a fixed non-zero constant by the computation.
  static constexpr std::uint64_t kHashUnset = 0;

  mutable std::atomic<std::uint64_t> hash_{kHashUnset};
  union Storage {
    std::uint8_t inline_octets[kInlineCapacity];
    std::uint8_t* heap;
    Storage() noexcept {}  // storage is managed by Name
  } storage_;
  std::uint8_t packed_size_ = 0;
  std::uint8_t label_count_ = 0;
};

static_assert(sizeof(Name) == 64, "Name should stay one cache line");

struct NameHash {
  std::size_t operator()(const Name& n) const noexcept { return n.hash(); }
};

}  // namespace ecsdns::dnscore
