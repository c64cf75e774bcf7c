// Authoritative bookkeeping of the GeoGrid space partition.
//
// Partition maintains the set of regions (an exact tiling of the plane),
// the edge-adjacency graph between them, the node table, and the
// node-to-region ownership indexes.  It provides the *mechanics* every
// GeoGrid variant composes — split, merge, and the owner-seat moves the
// eight load-balance adaptations perform — while the *policies* (where a
// joiner goes, which adaptation fires) live in the overlay/dualpeer/
// loadbalance libraries.
//
// Partition is the engine-mode substrate for the paper's large sweeps and
// the reference model that protocol-mode integration tests validate
// against.  validate() checks the full invariant set and is the workhorse
// of the property-test suites.
#pragma once

#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/geometry.h"
#include "common/ids.h"
#include "net/node_info.h"
#include "overlay/region.h"

namespace geogrid::overlay {

class Partition {
 public:
  explicit Partition(Rect plane) : plane_(plane) {}

  const Rect& plane() const noexcept { return plane_; }

  // --- Node table --------------------------------------------------------

  /// Registers a node (id must be fresh).  Returns its id for convenience.
  NodeId add_node(const net::NodeInfo& info);

  /// Removes a node from the table.  Precondition: it owns no seat.
  void remove_node(NodeId id);

  bool has_node(NodeId id) const { return nodes_.contains(id); }
  const net::NodeInfo& node(NodeId id) const;
  std::size_t node_count() const noexcept { return nodes_.size(); }
  const std::unordered_map<NodeId, net::NodeInfo>& nodes() const {
    return nodes_;
  }

  /// Fresh node id (engine-mode convenience; protocol mode gets ids from
  /// the harness).
  NodeId allocate_node_id() { return NodeId{next_node_id_++}; }

  // --- Region access -----------------------------------------------------

  bool has_region(RegionId id) const { return regions_.contains(id); }
  const Region& region(RegionId id) const;
  std::size_t region_count() const noexcept { return regions_.size(); }
  const std::unordered_map<RegionId, Region>& regions() const {
    return regions_;
  }

  /// Edge-adjacent regions of `id`.
  const std::vector<RegionId>& neighbors(RegionId id) const;

  /// Regions owned by a node.
  const std::vector<RegionId>& primary_regions(NodeId id) const;
  const std::vector<RegionId>& secondary_regions(NodeId id) const;

  /// Total nodes holding at least one seat.
  bool node_has_seat(NodeId id) const {
    return !primary_regions(id).empty() || !secondary_regions(id).empty();
  }

  /// The region covering a point, found by greedy geographic descent from
  /// `hint` (or an arbitrary region).  Returns kInvalidRegion when the
  /// partition is empty.
  RegionId locate(const Point& p, RegionId hint = kInvalidRegion) const;

  /// Monotonic counter bumped on every geometry change (root creation,
  /// split, merge, retirement).  Owner-seat moves do NOT bump it: they
  /// reassign seats without touching any rect.  Lets callers cache
  /// region-id -> rect mappings (e.g. the sharded ingest engine's per-user
  /// region memo) and invalidate them exactly when a rect may have moved.
  std::uint64_t geometry_version() const noexcept { return geometry_version_; }

  // --- Mechanics ---------------------------------------------------------

  /// Creates the root region spanning the whole plane, owned by `primary`
  /// (the founding node).  Precondition: the partition is empty.
  RegionId create_root(NodeId primary);

  /// Splits `id` in half along the axis given by its split depth.  The old
  /// region keeps its id, rect shrunk to the half that owns its primary
  /// owner's coordinate (Rect::owns; the high half when the coordinate lies
  /// in neither); the other half becomes a new region owned by
  /// `other_primary`.  Secondary owners stay with the old region.  Returns
  /// the new region's id.
  RegionId split(RegionId id, NodeId other_primary);

  /// Splits `id` giving the *low* or *high* half to the new region
  /// explicitly (used by load-balance mechanism (d), where the secondary —
  /// not a joiner — takes one half).
  RegionId split_explicit(RegionId id, NodeId other_primary, bool give_high);

  /// Removes the final region when the last node leaves the grid.
  /// Precondition: it is the only region.
  void retire_last_region(RegionId id);

  /// Merges region `from` into adjacent region `into` (rects must be
  /// mergeable).  `from`'s id is retired; its owners lose their seats.
  /// Owners of `from` that end with no seat remain in the node table — the
  /// caller decides whether they re-join elsewhere.
  void merge(RegionId into, RegionId from);

  // Owner-seat moves (the primitives behind the adaptation mechanisms).
  void set_primary(RegionId id, NodeId node);
  void set_secondary(RegionId id, NodeId node);
  void clear_secondary(RegionId id);
  /// Swaps the primary and secondary seats of one region.
  void swap_roles(RegionId id);
  /// Swaps the primary owners of two regions (mechanisms b, h).
  void swap_primaries(RegionId a, RegionId b);
  /// Moves primary of `a` into the secondary seat of `b` and vice versa
  /// (mechanisms e, g).
  void swap_primary_with_secondary(RegionId a, RegionId b);

  // --- Invariants --------------------------------------------------------

  /// Full invariant check; returns human-readable violations (empty = OK).
  /// O(R^2) on region pairs — intended for tests and small partitions.
  std::vector<std::string> validate() const;

  /// Cheap structural check for large partitions: area conservation,
  /// adjacency symmetry, ownership index consistency.
  std::vector<std::string> validate_fast() const;

 private:
  RegionId allocate_region_id() { return RegionId{next_region_id_++}; }

  void link_neighbors(RegionId a, RegionId b);
  void unlink_neighbors(RegionId a, RegionId b);
  /// Rebuilds adjacency of `id` against a candidate set.
  void relink_region(RegionId id, const std::vector<RegionId>& candidates);

  void index_add(std::unordered_map<NodeId, std::vector<RegionId>>& index,
                 NodeId node, RegionId region);
  void index_remove(std::unordered_map<NodeId, std::vector<RegionId>>& index,
                    NodeId node, RegionId region);

  Rect plane_;
  std::unordered_map<NodeId, net::NodeInfo> nodes_;
  std::unordered_map<RegionId, Region> regions_;
  std::unordered_map<RegionId, std::vector<RegionId>> adjacency_;
  std::unordered_map<NodeId, std::vector<RegionId>> primary_index_;
  std::unordered_map<NodeId, std::vector<RegionId>> secondary_index_;
  std::uint32_t next_region_id_ = 0;
  std::uint32_t next_node_id_ = 0;
  std::uint64_t geometry_version_ = 0;
};

}  // namespace geogrid::overlay
