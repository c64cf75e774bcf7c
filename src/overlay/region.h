// Region record.
//
// A region is a rectangle of the GeoGrid plane together with its ownership:
// a primary owner node (always present once the region exists) and, in
// dual-peer mode, an optional secondary owner that replicates the primary's
// state and takes over on failure.  RegionIds are stable across ownership
// changes — the load-balance adaptations re-assign owners without renaming
// regions — and are only retired by merges.
#pragma once

#include <optional>

#include "common/geometry.h"
#include "common/ids.h"

namespace geogrid::overlay {

struct Region {
  RegionId id{};
  Rect rect{};
  int split_depth = 0;  ///< splits from the root; selects the next split axis
  NodeId primary{};
  std::optional<NodeId> secondary{};

  /// A region is "full" when it has a dual peer (both owner seats taken).
  bool full() const noexcept { return secondary.has_value(); }
};

/// Minimum side length (miles) below which a region is never split again.
/// A 64-mile plane supports ~2^32 regions above this floor, so the limit is
/// unreachable in practice; it exists to keep degenerate split cascades
/// (possible when every probe candidate ties at zero load) from producing
/// sliver regions thinner than the geometric tolerance.
inline constexpr double kMinSplitDimension = 1e-3;

/// True when the region may be split in half again.
constexpr bool splittable(const Rect& rect) noexcept {
  return rect.width >= 2.0 * kMinSplitDimension &&
         rect.height >= 2.0 * kMinSplitDimension;
}

/// The split axis used at a given depth.  The paper splits "latitude
/// dimension first and then longitude": even depths split latitude (Y),
/// odd depths split longitude (X).
constexpr Axis split_axis_for_depth(int depth) noexcept {
  return (depth % 2 == 0) ? Axis::kY : Axis::kX;
}

}  // namespace geogrid::overlay
