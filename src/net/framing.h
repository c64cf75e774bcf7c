// Stream framing for the binary wire protocol.
//
// A TCP connection delivers an undelimited byte stream; the serving edge
// needs record boundaries on top of it.  A frame is
//
//   [varint length N][N bytes: u16 type + payload]
//
// i.e. the length prefix covers exactly what encode_message produces.  The
// writer side is append_frame; the reader side is FrameDecoder, an
// incremental reassembler built for *untrusted* bytes — the first thing a
// real socket hands you is the one input the rest of the codebase never
// sees, so every failure mode is a typed result, never an exception
// escaping into the event loop and never a read past the buffered bytes:
//
//   * a frame split across arbitrarily many reads (byte-at-a-time included)
//     reports kNeedMore until the last byte lands;
//   * a length prefix whose varint is wider than 5 bytes is malformed
//     (lengths are capped far below 2^35) — kError, not an infinite wait;
//   * a length prefix exceeding Options::max_frame_bytes is rejected
//     before any buffering of the oversized body — a 4GB announcement
//     costs the peer its connection, not the server its memory;
//   * a complete frame whose body fails message decoding (unknown type
//     tag, truncated field, trailing garbage, an element count larger
//     than the bytes left) is kError with the codec's reason.
//
// Errors are sticky: after the first kError the stream position is
// unrecoverable (framing is lost), so the caller must drop the connection.
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "net/messages.h"

namespace geogrid::net {

/// Default ceiling on one frame's body size.  Generous for every message
/// the protocol defines (the largest — LoadStatsExchange with hundreds of
/// snapshots — is tens of KB) while bounding what one peer can make the
/// server buffer.
inline constexpr std::size_t kDefaultMaxFrameBytes = 1u << 20;

/// An allocator whose value-initialization of an element is
/// default-initialization, so `resize` grows a byte buffer without
/// zero-filling the new bytes.  Only for buffers whose every new byte is
/// written right after the resize, as append_frame's cursor does.
template <typename T>
struct DefaultInitAllocator : std::allocator<T> {
  using std::allocator<T>::allocator;
  template <typename U>
  struct rebind {
    using other = DefaultInitAllocator<U>;
  };
  template <typename U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    std::construct_at(p, std::forward<Args>(args)...);
  }
};

/// The server's per-connection output buffer: frames are written in place
/// into its spare bytes, which are never zero-filled first.
using FrameBuffer = std::vector<std::byte, DefaultInitAllocator<std::byte>>;

/// Appends one framed message to `out`; returns the framed size in bytes.
/// The body is sized from its field list first, so `out` grows once by
/// exactly the frame (geometrically, as any resize does) and the length
/// prefix and the body are written in place, with no buffer in between.
/// Any byte vector works; a FrameBuffer skips the zero-fill of the frame
/// the cursor then overwrites.
template <WireMessage M, typename Alloc>
std::size_t append_frame(const M& m, std::vector<std::byte, Alloc>& out) {
  const std::size_t body = message_size(m);
  SizeCounter prefix;
  prefix.varint(body);
  const std::size_t at = out.size();
  out.resize(at + prefix.size() + body);
  Cursor cursor(out.data() + at);
  cursor.varint(body);
  put_message(cursor, m);
  return prefix.size() + body;
}

/// The same for a message held in the variant.
template <typename Alloc>
std::size_t append_frame(const Message& m, std::vector<std::byte, Alloc>& out) {
  return std::visit(
      [&out](const auto& msg) { return append_frame(msg, out); }, m);
}

/// Convenience: a single framed message as a fresh buffer.
std::vector<std::byte> encode_frame(const Message& m);

class FrameDecoder {
 public:
  struct Options {
    std::size_t max_frame_bytes = kDefaultMaxFrameBytes;
  };

  enum class Status : std::uint8_t {
    kFrame = 0,     ///< one complete message extracted
    kNeedMore = 1,  ///< the buffered bytes end mid-frame; feed() more
    kError = 2,     ///< malformed stream; the connection must be dropped
  };

  struct Result {
    Status status = Status::kNeedMore;
    std::optional<Message> message;  ///< set exactly when status == kFrame
    std::string error;               ///< set exactly when status == kError
  };

  FrameDecoder() = default;
  explicit FrameDecoder(Options options) : options_(options) {}

  /// Appends raw bytes received from the stream.  No parsing happens here;
  /// feeding after an error is a harmless no-op.
  void feed(const std::byte* data, std::size_t n);
  void feed(const std::vector<std::byte>& bytes) {
    feed(bytes.data(), bytes.size());
  }

  /// Attempts to extract the next complete frame.  Never throws, never
  /// reads beyond the fed bytes.  Call in a loop until kNeedMore (or
  /// kError, which is terminal).
  Result next();

  /// Bytes fed but not yet consumed by complete frames.
  std::size_t buffered() const noexcept { return buf_.size() - pos_; }

  /// True once any kError was returned; every later next() repeats it.
  bool failed() const noexcept { return failed_; }

  const Options& options() const noexcept { return options_; }

 private:
  Result fail(std::string reason);

  Options options_{};
  std::vector<std::byte> buf_;
  std::size_t pos_ = 0;  ///< consumed prefix of buf_
  bool failed_ = false;
  std::string error_;
};

}  // namespace geogrid::net
