#include "dnscore/name.h"

#include <algorithm>
#include <stdexcept>

#include "dnscore/contracts.h"

namespace ecsdns::dnscore {
namespace {

constexpr std::size_t kMaxLabel = 63;
constexpr std::size_t kMaxName = 255;
// Packed form excludes the root byte, so it has one octet less headroom.
constexpr std::size_t kMaxPacked = kMaxName - 1;
constexpr std::uint8_t kPointerMask = 0xc0;
// A 14-bit pointer can target at most 0x3fff distinct offsets and each hop
// must move strictly backwards, so any chain longer than this is a loop.
constexpr std::size_t kMaxPointerJumps = 64;

char ascii_lower(char c) {
  return (c >= 'A' && c <= 'Z') ? static_cast<char>(c - 'A' + 'a') : c;
}

std::uint8_t lower_octet(std::uint8_t c) {
  return (c >= 'A' && c <= 'Z') ? static_cast<std::uint8_t>(c - 'A' + 'a') : c;
}

// Case-insensitive label comparison returning <0, 0, >0.
int label_cmp(std::string_view a, std::string_view b) {
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    const char ca = ascii_lower(a[i]);
    const char cb = ascii_lower(b[i]);
    if (ca != cb) return ca < cb ? -1 : 1;
  }
  if (a.size() == b.size()) return 0;
  return a.size() < b.size() ? -1 : 1;
}

// Case-insensitive FNV-1a over packed labels; never returns kHashUnset (0).
std::uint64_t hash_packed(const std::uint8_t* p, std::size_t size) noexcept {
  std::uint64_t h = 14695981039346656037ull;
  for (std::size_t off = 0; off < size;) {
    const std::size_t len = p[off++];
    for (std::size_t i = 0; i < len; ++i) {
      h ^= lower_octet(p[off + i]);
      h *= 1099511628211ull;
    }
    off += len;
    h ^= 0xff;  // label separator so ("ab","c") != ("a","bc")
    h *= 1099511628211ull;
  }
  return h == 0 ? 0x9e3779b97f4a7c15ull : h;  // keep the unset sentinel free
}

// Case-insensitive equality of two packed buffers of the same size.
bool packed_equal(const std::uint8_t* a, const std::uint8_t* b,
                  std::size_t size) noexcept {
  // Byte-identical buffers are the overwhelmingly common case (names in the
  // simulators come from a single spelling), and std::equal vectorizes where
  // the folding loop cannot.
  if (std::equal(a, a + size, b)) return true;
  // Length octets are < 64 and thus fixed points of lower_octet, so the
  // whole packed buffer — labels and interior length bytes alike — can be
  // compared through one case-folding pass.
  for (std::size_t i = 0; i < size; ++i) {
    if (lower_octet(a[i]) != lower_octet(b[i])) return false;
  }
  return true;
}

// Builds a packed name in a stack buffer during parsing; committed into a
// Name (and onto the heap, if large) only once the whole name validated.
struct PackedBuilder {
  std::uint8_t octets[kMaxPacked];
  std::size_t size = 0;
  std::size_t labels = 0;

  void append_label(const char* data, std::size_t len) {
    if (len == 0) throw WireFormatError("empty label in name");
    if (len > kMaxLabel) {
      throw WireFormatError("label exceeds 63 octets: " + std::string(data, len));
    }
    if (size + 1 + len > kMaxPacked) {
      throw WireFormatError("name exceeds 255 octets");
    }
    octets[size++] = static_cast<std::uint8_t>(len);
    for (std::size_t i = 0; i < len; ++i) {
      octets[size++] = static_cast<std::uint8_t>(data[i]);
    }
    ++labels;
  }
};

}  // namespace

Name::Name(const std::uint8_t* packed, std::size_t size, std::size_t labels) {
  adopt(packed, size, labels);
}

void Name::adopt(const std::uint8_t* packed, std::size_t size, std::size_t labels) {
  ECSDNS_DCHECK(size <= kMaxPacked);
  ECSDNS_DCHECK(labels <= kMaxPacked / 2 + 1);
  packed_size_ = static_cast<std::uint8_t>(size);
  label_count_ = static_cast<std::uint8_t>(labels);
  std::uint8_t* dst =
      size <= kInlineCapacity ? storage_.inline_octets : (storage_.heap = new std::uint8_t[size]);
  std::copy(packed, packed + size, dst);
}

void Name::release() noexcept {
  if (!is_inline()) delete[] storage_.heap;
  packed_size_ = 0;
  label_count_ = 0;
}

Name::Name(const Name& other) : hash_(other.hash_.load(std::memory_order_relaxed)) {
  adopt(other.packed(), other.packed_size_, other.label_count_);
}

Name::Name(Name&& other) noexcept
    : hash_(other.hash_.load(std::memory_order_relaxed)) {
  packed_size_ = other.packed_size_;
  label_count_ = other.label_count_;
  if (is_inline()) {
    std::copy(other.storage_.inline_octets,
              other.storage_.inline_octets + packed_size_, storage_.inline_octets);
  } else {
    storage_.heap = other.storage_.heap;  // steal the block
    other.packed_size_ = 0;
    other.label_count_ = 0;
  }
}

Name& Name::operator=(const Name& other) {
  if (this == &other) return *this;
  release();
  hash_.store(other.hash_.load(std::memory_order_relaxed), std::memory_order_relaxed);
  adopt(other.packed(), other.packed_size_, other.label_count_);
  return *this;
}

Name& Name::operator=(Name&& other) noexcept {
  if (this == &other) return *this;
  release();
  hash_.store(other.hash_.load(std::memory_order_relaxed), std::memory_order_relaxed);
  packed_size_ = other.packed_size_;
  label_count_ = other.label_count_;
  if (is_inline()) {
    std::copy(other.storage_.inline_octets,
              other.storage_.inline_octets + packed_size_, storage_.inline_octets);
  } else {
    storage_.heap = other.storage_.heap;
    other.packed_size_ = 0;
    other.label_count_ = 0;
  }
  return *this;
}

std::size_t Name::label_offset(std::size_t i) const noexcept {
  ECSDNS_DCHECK(i < label_count_);
  const std::uint8_t* p = packed();
  std::size_t off = 0;
  while (i-- > 0) off += 1u + p[off];
  return off;
}

std::string_view Name::label(std::size_t i) const noexcept {
  const std::size_t off = label_offset(i);
  const std::uint8_t* p = packed();
  return {reinterpret_cast<const char*>(p + off + 1), p[off]};
}

std::vector<std::string> Name::labels() const {
  std::vector<std::string> out;
  out.reserve(label_count_);
  const std::uint8_t* p = packed();
  for (std::size_t off = 0; off < packed_size_; off += 1u + p[off]) {
    out.emplace_back(reinterpret_cast<const char*>(p + off + 1), p[off]);
  }
  return out;
}

Name Name::from_string(const std::string& text) {
  if (text.empty() || text == ".") return Name{};
  PackedBuilder packed;
  char current[kMaxLabel + 1];  // one slack octet so overlong labels throw
  std::size_t current_len = 0;
  const auto push_octet = [&](char c) {
    if (current_len > kMaxLabel) {
      throw WireFormatError("label exceeds 63 octets: " + text);
    }
    current[current_len++] = c;
  };
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (c == '\\') {
      if (i + 1 >= text.size()) {
        throw WireFormatError("trailing backslash in name: " + text);
      }
      push_octet(text[++i]);
    } else if (c == '.') {
      if (current_len == 0) throw WireFormatError("empty label in name: " + text);
      packed.append_label(current, current_len);
      current_len = 0;
    } else {
      push_octet(c);
    }
  }
  if (current_len != 0) packed.append_label(current, current_len);
  return Name{packed.octets, packed.size, packed.labels};
}

Name Name::parse(WireReader& reader) {
  PackedBuilder packed;
  // After the first compression pointer we keep reading at the pointed-to
  // offset but remember where the name's wire representation ended.
  std::optional<std::size_t> resume_at;
  std::size_t jumps = 0;

  for (;;) {
    const std::size_t label_start = reader.offset();
    const std::uint8_t len = reader.u8();
    if ((len & kPointerMask) == kPointerMask) {
      const std::uint8_t low = reader.u8();
      const std::size_t target =
          (static_cast<std::size_t>(len & 0x3f) << 8) | low;
      if (target >= label_start) {
        throw WireFormatError("compression pointer does not point backwards");
      }
      if (++jumps > kMaxPointerJumps) {
        throw WireFormatError("compression pointer loop");
      }
      if (!resume_at) resume_at = reader.offset();
      reader.seek(target);
      continue;
    }
    if ((len & kPointerMask) != 0) {
      throw WireFormatError("reserved label type 0x" + std::to_string(len >> 6));
    }
    if (len == 0) break;
    if (packed.size + 1u + len > kMaxPacked) {
      throw WireFormatError("decompressed name exceeds 255 octets");
    }
    const auto raw = reader.bytes(len);
    packed.append_label(reinterpret_cast<const char*>(raw.data()), raw.size());
  }
  ECSDNS_DCHECK(packed.size <= kMaxPacked);
  ECSDNS_DCHECK(jumps <= kMaxPointerJumps);
  if (resume_at) reader.seek(*resume_at);
  return Name{packed.octets, packed.size, packed.labels};
}

std::size_t Name::skip(WireReader& reader) {
  // Mirror of parse() above with the label copies removed. Every validation
  // branch — and therefore every WireFormatError — must stay in lockstep
  // with parse(): the MessageView differential oracle holds the two to
  // byte-identical accept/reject behavior.
  std::size_t packed_size = 0;
  std::size_t labels = 0;
  std::optional<std::size_t> resume_at;
  std::size_t jumps = 0;

  for (;;) {
    const std::size_t label_start = reader.offset();
    const std::uint8_t len = reader.u8();
    if ((len & kPointerMask) == kPointerMask) {
      const std::uint8_t low = reader.u8();
      const std::size_t target =
          (static_cast<std::size_t>(len & 0x3f) << 8) | low;
      if (target >= label_start) {
        throw WireFormatError("compression pointer does not point backwards");
      }
      if (++jumps > kMaxPointerJumps) {
        throw WireFormatError("compression pointer loop");
      }
      if (!resume_at) resume_at = reader.offset();
      reader.seek(target);
      continue;
    }
    if ((len & kPointerMask) != 0) {
      throw WireFormatError("reserved label type 0x" + std::to_string(len >> 6));
    }
    if (len == 0) break;
    if (packed_size + 1u + len > kMaxPacked) {
      throw WireFormatError("decompressed name exceeds 255 octets");
    }
    reader.skip(len);
    packed_size += 1u + len;
    ++labels;
  }
  if (resume_at) reader.seek(*resume_at);
  return labels;
}

void Name::serialize(WireWriter& writer) const {
  // The packed representation IS the uncompressed wire form minus the root
  // byte, so serialization is a single bulk append.
  writer.bytes({packed(), packed_size_});
  writer.u8(0);
}

bool Name::CompressionTable::SuffixRef::operator==(
    const SuffixRef& other) const noexcept {
  if (size != other.size) return false;
  // Interior length octets are < 64 and thus fixed points of lower_octet,
  // so the whole suffix folds through one pass (same trick as Name::==).
  for (std::uint16_t i = 0; i < size; ++i) {
    if (lower_octet(data[i]) != lower_octet(other.data[i])) return false;
  }
  return true;
}

std::size_t Name::CompressionTable::SuffixHash::operator()(
    const SuffixRef& s) const noexcept {
  // Case-insensitive FNV-1a over the packed suffix octets. Length octets
  // participate, which keeps ("ab","c") and ("a","bc") distinct.
  std::uint64_t h = 14695981039346656037ull;
  for (std::uint16_t i = 0; i < s.size; ++i) {
    h ^= lower_octet(s.data[i]);
    h *= 1099511628211ull;
  }
  return static_cast<std::size_t>(h);
}

std::optional<std::uint16_t> Name::CompressionTable::find_suffix(
    SuffixRef suffix) const {
  const std::uint16_t* found = offsets_.find(suffix);
  if (found == nullptr) return std::nullopt;
  return *found;
}

void Name::CompressionTable::remember_suffix(SuffixRef suffix,
                                             std::size_t offset) {
  if (offset > 0x3fff) return;  // unreachable by a 14-bit pointer
  offsets_.insert_or_assign(suffix, static_cast<std::uint16_t>(offset));
}

std::optional<std::uint16_t> Name::CompressionTable::find(
    const Name& name, std::size_t from_label) const {
  if (from_label >= name.label_count()) return std::nullopt;
  const std::size_t off = name.label_offset(from_label);
  return find_suffix(SuffixRef{
      name.packed() + off,
      static_cast<std::uint16_t>(name.packed_size_ - off)});
}

void Name::CompressionTable::remember(const Name& name, std::size_t from_label,
                                      std::size_t offset) {
  if (from_label >= name.label_count()) return;
  const std::size_t off = name.label_offset(from_label);
  remember_suffix(SuffixRef{name.packed() + off,
                            static_cast<std::uint16_t>(name.packed_size_ - off)},
                  offset);
}

void Name::serialize_compressed(WireWriter& writer, CompressionTable& table) const {
  const std::uint8_t* p = packed();
  for (std::size_t off = 0; off < packed_size_;) {
    const CompressionTable::SuffixRef suffix{
        p + off, static_cast<std::uint16_t>(packed_size_ - off)};
    if (const auto target = table.find_suffix(suffix)) {
      writer.u16(static_cast<std::uint16_t>(0xc000 | *target));
      return;
    }
    // ecstidy:allow(noalloc): suffix-index growth is bounded by this
    // message's distinct name suffixes; the table is per-message and tiny.
    table.remember_suffix(suffix, writer.size());
    const std::size_t len = p[off];
    ECSDNS_DCHECK(len > 0 && len <= kMaxLabel);
    writer.bytes({p + off, 1 + len});
    off += 1 + len;
  }
  writer.u8(0);
}

std::string Name::to_string() const {
  if (label_count_ == 0) return ".";
  std::string out;
  out.reserve(packed_size_);
  const std::uint8_t* p = packed();
  bool first = true;
  for (std::size_t off = 0; off < packed_size_;) {
    if (!first) out.push_back('.');
    first = false;
    const std::size_t len = p[off++];
    for (std::size_t i = 0; i < len; ++i) {
      const char c = static_cast<char>(p[off + i]);
      if (c == '.' || c == '\\') out.push_back('\\');
      out.push_back(c);
    }
    off += len;
  }
  return out;
}

bool Name::is_subdomain_of(const Name& zone) const {
  if (zone.label_count_ > label_count_) return false;
  for (std::size_t i = 0; i < zone.label_count_; ++i) {
    if (label_cmp(label(label_count_ - 1 - i),
                  zone.label(zone.label_count_ - 1 - i)) != 0) {
      return false;
    }
  }
  return true;
}

Name Name::parent() const {
  if (label_count_ == 0) throw std::logic_error("root name has no parent");
  const std::uint8_t* p = packed();
  const std::size_t skip = 1u + p[0];
  return Name{p + skip, packed_size_ - skip, label_count_ - 1u};
}

Name Name::suffix(std::size_t labels) const {
  if (label_count_ <= labels) return *this;
  const std::size_t off = label_offset(label_count_ - labels);
  return Name{packed() + off, packed_size_ - off, labels};
}

std::size_t Name::suffix_hash(std::size_t from_label) const noexcept {
  const std::size_t off =
      from_label < label_count_ ? label_offset(from_label) : packed_size_;
  return static_cast<std::size_t>(hash_packed(packed() + off, packed_size_ - off));
}

bool Name::suffix_equals(std::size_t from_label, const Name& other) const noexcept {
  if (from_label > label_count_ || label_count_ - from_label != other.label_count_) {
    return false;
  }
  const std::size_t off =
      from_label < label_count_ ? label_offset(from_label) : packed_size_;
  return packed_size_ - off == other.packed_size_ &&
         packed_equal(packed() + off, other.packed(), other.packed_size_);
}

Name Name::prepend(std::string_view label) const {
  if (label.empty()) throw WireFormatError("empty label in name");
  if (label.size() > kMaxLabel) {
    throw WireFormatError("label exceeds 63 octets: " + std::string(label));
  }
  const std::size_t new_size = 1 + label.size() + packed_size_;
  if (new_size > kMaxPacked) throw WireFormatError("name exceeds 255 octets");
  std::uint8_t octets[kMaxPacked];
  octets[0] = static_cast<std::uint8_t>(label.size());
  std::copy(label.begin(), label.end(), reinterpret_cast<char*>(octets + 1));
  std::copy(packed(), packed() + packed_size_, octets + 1 + label.size());
  return Name{octets, new_size, label_count_ + 1u};
}

bool Name::operator==(const Name& other) const noexcept {
  if (packed_size_ != other.packed_size_ || label_count_ != other.label_count_) {
    return false;
  }
  // Cached hashes are equality witnesses: equal names hash equal, so two
  // different cached values prove inequality without touching the octets.
  const std::uint64_t ha = hash_.load(std::memory_order_relaxed);
  const std::uint64_t hb = other.hash_.load(std::memory_order_relaxed);
  if (ha != kHashUnset && hb != kHashUnset && ha != hb) return false;
  return packed_equal(packed(), other.packed(), packed_size_);
}

bool Name::operator<(const Name& other) const noexcept {
  // Canonical DNS ordering compares labels from the most significant (root)
  // side so that subdomains sort adjacent to their parents.
  const std::size_t common = std::min(label_count_, other.label_count_);
  for (std::size_t i = 0; i < common; ++i) {
    const int c = label_cmp(label(label_count_ - 1 - i),
                            other.label(other.label_count_ - 1 - i));
    if (c != 0) return c < 0;
  }
  return label_count_ < other.label_count_;
}

std::size_t Name::hash() const noexcept {
  const std::uint64_t cached = hash_.load(std::memory_order_relaxed);
  if (cached != kHashUnset) return static_cast<std::size_t>(cached);
  const std::uint64_t h = hash_packed(packed(), packed_size_);
  hash_.store(h, std::memory_order_relaxed);
  return static_cast<std::size_t>(h);
}

}  // namespace ecsdns::dnscore
