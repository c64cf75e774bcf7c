#include "net/framing.h"

#include <cstring>

namespace geogrid::net {

namespace {

/// Widest length-prefix varint accepted: 5 bytes encode up to 2^35-1,
/// comfortably above any sane max_frame_bytes.  A sixth continuation byte
/// is a malformed stream, not a frame still in flight.
constexpr int kMaxLenVarintBytes = 5;

}  // namespace

std::vector<std::byte> encode_frame(const Message& m) {
  std::vector<std::byte> out;
  append_frame(m, out);
  return out;
}

void FrameDecoder::feed(const std::byte* data, std::size_t n) {
  if (failed_ || n == 0) return;
  // Compact the consumed prefix before growing: keeps the buffer bounded
  // by (one frame + one read chunk) instead of the whole session history.
  if (pos_ > 0 && (pos_ >= buf_.size() || pos_ >= 4096)) {
    buf_.erase(buf_.begin(),
               buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }
  buf_.insert(buf_.end(), data, data + n);
}

FrameDecoder::Result FrameDecoder::fail(std::string reason) {
  failed_ = true;
  error_ = std::move(reason);
  buf_.clear();
  pos_ = 0;
  Result r;
  r.status = Status::kError;
  r.error = error_;
  return r;
}

FrameDecoder::Result FrameDecoder::next() {
  Result r;
  if (failed_) {
    r.status = Status::kError;
    r.error = error_;
    return r;
  }

  // Length prefix.  Parsed byte-wise so a prefix split across reads waits
  // instead of throwing, and an over-long or oversized one fails before
  // the body is ever waited for.
  std::uint64_t len = 0;
  int shift = 0;
  int prefix_bytes = 0;
  std::size_t p = pos_;
  while (true) {
    if (p == buf_.size()) {
      r.status = Status::kNeedMore;
      return r;
    }
    const auto byte = static_cast<std::uint8_t>(buf_[p++]);
    ++prefix_bytes;
    if (prefix_bytes > kMaxLenVarintBytes) {
      return fail("malformed frame length varint (over 5 bytes)");
    }
    len |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) break;
    shift += 7;
  }
  if (len > options_.max_frame_bytes) {
    return fail("oversized frame (" + std::to_string(len) + " bytes > max " +
                std::to_string(options_.max_frame_bytes) + ")");
  }
  if (buf_.size() - p < len) {
    r.status = Status::kNeedMore;
    return r;
  }

  try {
    r.message = decode_message(buf_.data() + p, static_cast<std::size_t>(len));
  } catch (const CodecError& e) {
    return fail(std::string("malformed frame: ") + e.what());
  }
  pos_ = p + static_cast<std::size_t>(len);
  r.status = Status::kFrame;
  return r;
}

}  // namespace geogrid::net
