// Binary wire codec.
//
// GeoGrid middleware messages are exchanged between nodes as length-framed
// binary records.  The codec is a plain little-endian writer/reader pair
// with LEB128 varints for counts; it exists (a) so the simulated network can
// account realistic wire sizes per message and (b) so integration tests can
// prove every protocol message round-trips losslessly, which is what keeps
// the simulation honest about what information a node can actually know.
//
// Every fixed-layout wire struct lists its fields once,
//
//   static auto fields(auto& m) { return std::tie(m.region, m.load); }
//
// and the generic put/get pair below derives both directions from that
// list, with one rule per field type:
//
//   NodeId, RegionId, UserId        u32
//   uint8/16/32/64_t                their own width
//   double                          f64
//   bool                            u8, 0 or 1
//   int                             varint of the value cast to u64
//   enum                            its underlying type
//   Point, Rect                     two and four f64
//   std::string, vector<std::byte>  varint length, then the raw bytes
//   EncodedBlob<T>                  as a std::string holding T's encoding
//   std::optional<T>                bool, then T when present
//   std::vector<T>                  varint count, then each T
//   a struct with fields()          its fields in order, inline
//
// put() writes to any of three sinks with one interface: a Writer appends
// to its own growing buffer, a SizeCounter only counts the bytes, and a
// Cursor writes into memory already sized by a SizeCounter pass.  So a
// value's encoded size comes from the same field list as its bytes, and a
// frame can be sized first and then written once, in place.
//
// Counts are untrusted input.  Every element encodes to at least one byte,
// so get() rejects a vector count larger than the bytes left with
// CodecError before it reserves anything: a few hostile bytes cannot
// demand an arbitrary allocation.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <vector>

#include "common/geometry.h"
#include "common/ids.h"

namespace geogrid::net {

/// Thrown by Reader on truncated or malformed input.
class CodecError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

namespace detail {

/// The typed writes every byte sink offers (little-endian), each in terms
/// of the sink's raw(data, n).  A sink derives from SinkOps<itself>.
template <typename Sink>
class SinkOps {
 public:
  void u8(std::uint8_t v) { raw(&v, 1); }
  void u16(std::uint16_t v) { fixed(v); }
  void u32(std::uint32_t v) { fixed(v); }
  void u64(std::uint64_t v) { fixed(v); }

  /// An unsigned integer at its own width.
  template <typename U>
  void fixed(U v) {
    raw(&v, sizeof v);
  }

  /// LEB128 unsigned varint; used for counts and small ids.
  void varint(std::uint64_t v) {
    std::uint8_t b[10];  // ceil(64 / 7) bytes at most
    std::size_t n = 0;
    while (v >= 0x80) {
      b[n++] = static_cast<std::uint8_t>(v) | 0x80;
      v >>= 7;
    }
    b[n++] = static_cast<std::uint8_t>(v);
    raw(b, n);
  }

  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

  void boolean(bool v) { u8(v ? 1 : 0); }

  /// Varint length, then the raw bytes.
  void blob(std::span<const std::byte> b) {
    varint(b.size());
    // An empty span may carry a null pointer, which memcpy must not see.
    if (!b.empty()) raw(b.data(), b.size());
  }
  void string(std::string_view s) { blob(std::as_bytes(std::span(s))); }

 private:
  void raw(const void* data, std::size_t n) {
    static_cast<Sink&>(*this).raw(data, n);
  }
};

}  // namespace detail

/// Appends primitive values to a byte buffer.
///
/// Each write is one bounds check and one memcpy at a cursor.  The vector
/// grows geometrically ahead of the cursor, so it holds spare bytes past
/// the written ones; bytes() and take() trim it to exactly the written
/// bytes.  Trimming a byte vector neither frees nor copies, and a write
/// after bytes() grows it again in place.  So bytes() modifies the buffer
/// although it is const: one Writer is never shared between threads.
class Writer : public detail::SinkOps<Writer> {
 public:
  const std::vector<std::byte>& bytes() const noexcept {
    buf_.resize(size_);
    return buf_;
  }
  std::vector<std::byte> take() && noexcept {
    buf_.resize(size_);
    size_ = 0;
    return std::move(buf_);
  }
  std::size_t size() const noexcept { return size_; }

 private:
  friend class detail::SinkOps<Writer>;

  void raw(const void* data, std::size_t n) {
    if (size_ + n > buf_.size()) grow(n);
    std::memcpy(buf_.data() + size_, data, n);
    size_ += n;
  }

  /// Makes room for `n` more bytes, at least doubling the buffer.
  void grow(std::size_t n);

  mutable std::vector<std::byte> buf_;  ///< written bytes, then spare room
  std::size_t size_ = 0;                ///< bytes written
};

/// Counts the bytes the same writes would append, and writes none: put()
/// into a SizeCounter sizes a value from its field list.
class SizeCounter : public detail::SinkOps<SizeCounter> {
 public:
  std::size_t size() const noexcept { return size_; }

 private:
  friend class detail::SinkOps<SizeCounter>;

  void raw(const void*, std::size_t n) noexcept { size_ += n; }

  std::size_t size_ = 0;
};

/// Writes at a cursor into memory that is already sized for exactly what
/// is written, as a SizeCounter pass over the same values measured it.
/// Each write is one memcpy and no bounds check.
class Cursor : public detail::SinkOps<Cursor> {
 public:
  explicit Cursor(std::byte* at) noexcept : at_(at) {}

 private:
  friend class detail::SinkOps<Cursor>;

  void raw(const void* data, std::size_t n) noexcept {
    std::memcpy(at_, data, n);
    at_ += n;
  }

  std::byte* at_;
};

/// The bytes `value.encode(sink)` writes, put as a blob: on the wire the
/// same bytes as a std::string holding that encoding, but written straight
/// into the sink.  The length is counted once, when the blob is made; the
/// value must outlive the blob and not change under it.
template <typename T>
class EncodedBlob {
 public:
  explicit EncodedBlob(const T& value) : value_(&value) {
    SizeCounter n;
    value.encode(n);
    size_ = n.size();
  }

  std::size_t size() const noexcept { return size_; }

  template <typename Sink>
  void encode(Sink& sink) const {
    value_->encode(sink);
  }

 private:
  const T* value_;
  std::size_t size_;
};

/// Consumes primitive values from a byte span; throws CodecError when the
/// input is exhausted early.
class Reader {
 public:
  explicit Reader(const std::vector<std::byte>& buf)
      : data_(buf.data()), size_(buf.size()) {}
  Reader(const std::byte* data, std::size_t size) : data_(data), size_(size) {}

  bool done() const noexcept { return pos_ == size_; }
  std::size_t remaining() const noexcept { return size_ - pos_; }

  std::uint8_t u8() { return fixed<std::uint8_t>(); }
  std::uint16_t u16() { return fixed<std::uint16_t>(); }
  std::uint32_t u32() { return fixed<std::uint32_t>(); }
  std::uint64_t u64() { return fixed<std::uint64_t>(); }

  template <typename U>
  U fixed() {
    need(sizeof(U));
    U v;
    std::memcpy(&v, data_ + pos_, sizeof(U));
    pos_ += sizeof(U);
    return v;
  }

  std::uint64_t varint();

  double f64() { return std::bit_cast<double>(u64()); }
  bool boolean() { return u8() != 0; }

  /// Varint length, then that many bytes, viewed in place.
  std::span<const std::byte> blob() {
    const std::uint64_t n = varint();
    need(n);
    const std::span<const std::byte> b(data_ + pos_, n);
    pos_ += n;
    return b;
  }
  std::string string() {
    const auto b = blob();
    return std::string(reinterpret_cast<const char*>(b.data()), b.size());
  }

 private:
  void need(std::uint64_t n) const {
    if (remaining() < n) throw CodecError("truncated message");
  }

  const std::byte* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

namespace detail {

/// A struct whose wire layout is its fields() list.
template <typename T>
concept Described = requires(T& v) { T::fields(v); };

template <typename T, template <typename...> class Template>
inline constexpr bool kIsA = false;
template <template <typename...> class Template, typename... Args>
inline constexpr bool kIsA<Template<Args...>, Template> = true;

template <typename T>
inline constexpr bool kNoWireRule = false;

}  // namespace detail

/// Appends `v` by the rule for its type (see the table at the top) to a
/// sink: a Writer, a SizeCounter or a Cursor.  Always inlined, so a whole
/// field list compiles into its caller and a local Cursor keeps its
/// position in a register.  Reached through a reference, the position is
/// reloaded and stored around every field, since the bytes written may
/// alias any object: that doubled the cost of a 650-record range reply.
template <typename Sink, typename T>
[[gnu::always_inline]] inline void put(Sink& w, const T& v) {
  if constexpr (detail::Described<T>) {
    std::apply([&w](const auto&... f) { (put(w, f), ...); }, T::fields(v));
  } else if constexpr (std::is_same_v<T, bool>) {
    w.boolean(v);
  } else if constexpr (std::is_same_v<T, int>) {
    w.varint(static_cast<std::uint64_t>(v));
  } else if constexpr (std::is_enum_v<T>) {
    put(w, static_cast<std::underlying_type_t<T>>(v));
  } else if constexpr (std::is_unsigned_v<T>) {
    w.fixed(v);
  } else if constexpr (std::is_same_v<T, double>) {
    w.f64(v);
  } else if constexpr (detail::kIsA<T, geogrid::detail::TaggedId>) {
    w.u32(v.value);
  } else if constexpr (std::is_same_v<T, Point>) {
    w.f64(v.x);
    w.f64(v.y);
  } else if constexpr (std::is_same_v<T, Rect>) {
    w.f64(v.x);
    w.f64(v.y);
    w.f64(v.width);
    w.f64(v.height);
  } else if constexpr (std::is_same_v<T, std::string>) {
    w.string(v);
  } else if constexpr (std::is_same_v<T, std::vector<std::byte>>) {
    w.blob(v);
  } else if constexpr (detail::kIsA<T, EncodedBlob>) {
    w.varint(v.size());
    v.encode(w);
  } else if constexpr (detail::kIsA<T, std::optional>) {
    w.boolean(v.has_value());
    if (v) put(w, *v);
  } else if constexpr (detail::kIsA<T, std::vector>) {
    w.varint(v.size());
    for (const auto& e : v) put(w, e);
  } else {
    static_assert(detail::kNoWireRule<T>, "no wire rule for this type");
  }
}

/// Reads `v` by the rule for its type; the inverse of put.
template <typename T>
void get(Reader& r, T& v) {
  if constexpr (detail::Described<T>) {
    std::apply([&r](auto&... f) { (get(r, f), ...); }, T::fields(v));
  } else if constexpr (std::is_same_v<T, bool>) {
    v = r.boolean();
  } else if constexpr (std::is_same_v<T, int>) {
    v = static_cast<int>(r.varint());
  } else if constexpr (std::is_enum_v<T>) {
    std::underlying_type_t<T> u{};
    get(r, u);
    v = static_cast<T>(u);
  } else if constexpr (std::is_unsigned_v<T>) {
    v = r.fixed<T>();
  } else if constexpr (std::is_same_v<T, double>) {
    v = r.f64();
  } else if constexpr (detail::kIsA<T, geogrid::detail::TaggedId>) {
    v.value = r.u32();
  } else if constexpr (std::is_same_v<T, Point>) {
    v.x = r.f64();
    v.y = r.f64();
  } else if constexpr (std::is_same_v<T, Rect>) {
    v.x = r.f64();
    v.y = r.f64();
    v.width = r.f64();
    v.height = r.f64();
  } else if constexpr (std::is_same_v<T, std::string>) {
    v = r.string();
  } else if constexpr (std::is_same_v<T, std::vector<std::byte>>) {
    const auto b = r.blob();
    v.assign(b.begin(), b.end());
  } else if constexpr (detail::kIsA<T, std::optional>) {
    if (r.boolean()) {
      get(r, v.emplace());
    } else {
      v.reset();
    }
  } else if constexpr (detail::kIsA<T, std::vector>) {
    const std::uint64_t n = r.varint();
    if (n > r.remaining()) {
      throw CodecError("element count " + std::to_string(n) +
                       " exceeds the " + std::to_string(r.remaining()) +
                       " bytes left");
    }
    v.clear();
    v.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) get(r, v.emplace_back());
  } else {
    static_assert(detail::kNoWireRule<T>, "no wire rule for this type");
  }
}

/// Reads a fresh `T`.
template <typename T>
T get(Reader& r) {
  T v{};
  get(r, v);
  return v;
}

}  // namespace geogrid::net
