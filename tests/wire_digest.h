// Byte pins for wire layouts.
//
// A round-trip test cannot see a field that was reordered or re-typed on
// both the encode and the decode side at once: the bytes change, but they
// still decode.  Pinning the length plus an FNV-1a-64 digest of a fixed
// message's bytes catches that, at the cost of one line per message.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iomanip>
#include <ostream>
#include <span>
#include <vector>

namespace geogrid::testutil {

struct WireDigest {
  std::size_t size = 0;
  std::uint64_t fnv1a = 0;

  friend bool operator==(const WireDigest&, const WireDigest&) = default;

  friend std::ostream& operator<<(std::ostream& os, const WireDigest& d) {
    return os << '{' << d.size << ", 0x" << std::hex << std::setfill('0')
              << std::setw(16) << d.fnv1a << std::dec << std::setfill(' ')
              << "ull}";
  }
};

/// Running digest of a byte stream fed in pieces.
class WireHasher {
 public:
  void add(std::span<const std::byte> bytes) {
    for (const std::byte b : bytes) {
      h_ ^= static_cast<std::uint64_t>(b);
      h_ *= 0x100000001b3ull;
    }
    size_ += bytes.size();
  }
  WireDigest digest() const { return {size_, h_}; }

 private:
  std::size_t size_ = 0;
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

inline WireDigest wire_digest(const std::vector<std::byte>& bytes) {
  WireHasher h;
  h.add(bytes);
  return h.digest();
}

}  // namespace geogrid::testutil
