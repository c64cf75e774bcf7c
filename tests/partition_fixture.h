// Partitions of the 64 x 64-mile plane that the mobile-layer and pub/sub
// suites share: four quadrants, and a partition of any region count whose
// rect sizes vary.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/geometry.h"
#include "overlay/partition.h"

namespace geogrid::testutil {

inline constexpr Rect kPlane{0.0, 0.0, 64.0, 64.0};

/// Four quadrant regions via two split rounds.
struct QuadrantFixture {
  overlay::Partition partition{kPlane};
  QuadrantFixture() {
    const NodeId a = partition.add_node({NodeId{1}, Point{10, 10}, 10.0});
    const NodeId b = partition.add_node({NodeId{2}, Point{10, 50}, 10.0});
    const NodeId c = partition.add_node({NodeId{3}, Point{50, 10}, 10.0});
    const NodeId d = partition.add_node({NodeId{4}, Point{50, 50}, 10.0});
    const RegionId root = partition.create_root(a);
    const RegionId north = partition.split(root, b);
    partition.split(root, c);
    partition.split(north, d);
    EXPECT_EQ(partition.region_count(), 4u);
  }
};

/// A partition of `count` regions: the root halved again and again, each
/// split taking a pseudo-randomly chosen region, so rect sizes vary and
/// edges fall at many binary fractions of the plane.
inline overlay::Partition make_partition(std::size_t count) {
  overlay::Partition partition{kPlane};
  const NodeId root_owner =
      partition.add_node({NodeId{1}, Point{32, 32}, 10.0});
  std::vector<RegionId> regions = {partition.create_root(root_owner)};
  for (std::uint32_t n = 2; regions.size() < count; ++n) {
    const RegionId victim = regions[(n * 7919u) % regions.size()];
    const Rect r = partition.region(victim).rect;
    const NodeId node = partition.add_node({NodeId{n}, r.center(), 10.0});
    regions.push_back(partition.split(victim, node));
  }
  return partition;
}

}  // namespace geogrid::testutil
