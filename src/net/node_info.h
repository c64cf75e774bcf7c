// Shared protocol descriptors.
//
// NodeInfo is the paper's five-attribute node identity
// <x, y, IP, port, properties>; the simulated transport uses NodeId as the
// address, and `capacity` is the one property GeoGrid itself consumes (the
// node's available network bandwidth, in normalized units).  RegionSnapshot
// is what a node knows about a region other than its own: the rectangle plus
// the ownership/capacity/load facts that the join-probing and load-balance
// rules consume.  Snapshots travel in neighbor lists, probe responses, load
// stats and TTL search replies.
#pragma once

#include <optional>
#include <tuple>

#include "common/geometry.h"
#include "common/ids.h"
#include "net/codec.h"

namespace geogrid::net {

/// Identity and service properties of a GeoGrid node.
struct NodeInfo {
  NodeId id{};
  Point coord{};         ///< geographic position of the node (GPS)
  double capacity = 1.0; ///< total capacity the node dedicates to GeoGrid

  friend bool operator==(const NodeInfo&, const NodeInfo&) = default;

  static auto fields(auto& m) { return std::tie(m.id, m.coord, m.capacity); }
};

/// Workload index of `load` carried on `capacity`: load / capacity, or the
/// load itself when the capacity is zero.
inline double load_index(double load, double capacity) noexcept {
  return capacity > 0.0 ? load / capacity : load;
}

/// A node's view of one region: geometry, owners, and load facts.
struct RegionSnapshot {
  RegionId region{};
  Rect rect{};
  NodeInfo primary{};
  std::optional<NodeInfo> secondary{};
  double load = 0.0;            ///< current workload mapped to the region
  double workload_index = 0.0;  ///< load / primary capacity
  int split_depth = 0;          ///< number of splits from the root region

  bool full() const noexcept { return secondary.has_value(); }

  /// Available capacity of the primary owner (capacity minus load, floored
  /// at zero) — the quantity the dual-peer join rule minimizes.
  double primary_available() const noexcept {
    const double avail = primary.capacity - load;
    return avail > 0.0 ? avail : 0.0;
  }

  friend bool operator==(const RegionSnapshot&, const RegionSnapshot&) = default;

  static auto fields(auto& m) {
    return std::tie(m.region, m.rect, m.primary, m.secondary, m.load,
                    m.workload_index, m.split_depth);
  }
};

}  // namespace geogrid::net
