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

inline WireDigest wire_digest(const std::vector<std::byte>& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const std::byte b : bytes) {
    h ^= static_cast<std::uint64_t>(b);
    h *= 0x100000001b3ull;
  }
  return {bytes.size(), h};
}

}  // namespace geogrid::testutil
