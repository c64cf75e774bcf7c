#include "net/codec.h"

#include <algorithm>

namespace geogrid::net {

void Writer::grow(std::size_t n) {
  constexpr std::size_t kMinBytes = 64;
  buf_.resize(std::max({size_ + n, 2 * buf_.size(), kMinBytes}));
}

std::uint64_t Reader::varint() {
  std::uint64_t v = 0;
  int shift = 0;
  while (true) {
    if (shift >= 64) throw CodecError("varint overflow");
    const std::uint8_t byte = u8();
    v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) return v;
    shift += 7;
  }
}

}  // namespace geogrid::net
