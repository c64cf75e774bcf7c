// Greedy geographic routing over the partition.
#include "overlay/router.h"

#include <gtest/gtest.h>

#include "overlay/basic_ops.h"
#include "overlay/partition.h"

namespace geogrid::overlay {
namespace {

const Rect kPlane{0, 0, 64, 64};

net::NodeInfo make_node(std::uint32_t id, double x, double y) {
  net::NodeInfo n;
  n.id = NodeId{id};
  n.coord = Point{x, y};
  n.capacity = 10.0;
  return n;
}

/// Builds an exactly uniform 4x4 grid of 16x16-mile regions by splitting
/// every region once per round (Y, X, Y, X).
Partition grid16() {
  Partition p(kPlane);
  std::uint32_t id = 1;
  p.add_node(make_node(id, 8, 8));
  p.create_root(NodeId{id});
  ++id;
  for (int round = 0; round < 4; ++round) {
    std::vector<RegionId> existing;
    for (const auto& [rid, r] : p.regions()) existing.push_back(rid);
    for (const RegionId rid : existing) {
      p.add_node(make_node(id, 8, 8));
      p.split_explicit(rid, NodeId{id}, /*give_high=*/true);
      ++id;
    }
  }
  return p;
}

TEST(GreedyNext, PicksClosestCandidate) {
  const std::vector<HopCandidate> candidates{
      {RegionId{1}, Rect{0, 0, 10, 10}},
      {RegionId{2}, Rect{10, 0, 10, 10}},
      {RegionId{3}, Rect{20, 0, 10, 10}},
  };
  EXPECT_EQ(*greedy_next(candidates, Point{25, 5}, kPlane), (RegionId{3}));
  EXPECT_EQ(*greedy_next(candidates, Point{1, 1}, kPlane), (RegionId{1}));
}

TEST(GreedyNext, SkipsVisited) {
  const std::vector<HopCandidate> candidates{
      {RegionId{1}, Rect{0, 0, 10, 10}},
      {RegionId{2}, Rect{10, 0, 10, 10}},
  };
  const auto next = greedy_next(candidates, Point{1, 1}, kPlane,
                                [](RegionId id) { return id == RegionId{1}; });
  EXPECT_EQ(*next, (RegionId{2}));
}

TEST(GreedyNext, AllVisitedReturnsNothing) {
  const std::vector<HopCandidate> candidates{
      {RegionId{1}, Rect{0, 0, 10, 10}},
  };
  EXPECT_FALSE(greedy_next(candidates, Point{1, 1}, kPlane,
                           [](RegionId) { return true; })
                   .has_value());
}

TEST(GreedyNext, TieBreaksOnAreaThenId) {
  const std::vector<HopCandidate> candidates{
      {RegionId{7}, Rect{10, 0, 10, 10}},
      {RegionId{3}, Rect{10, 0, 10, 10}},   // identical rect: smaller id wins
      {RegionId{1}, Rect{10, 10, 20, 20}},  // same distance, bigger area
  };
  EXPECT_EQ(*greedy_next(candidates, Point{5, 5}, kPlane), (RegionId{3}));
}

TEST(GreedyNext, OwnerWinsOnASharedEdgeOrCorner) {
  // Every candidate lies at distance 0 from a point on its closed edge;
  // the one that owns the point wins over a finer or lower-id region.
  const std::vector<HopCandidate> candidates{
      {RegionId{9}, Rect{0, 0, 16, 16}},
      {RegionId{2}, Rect{16, 0, 8, 8}},
      {RegionId{1}, Rect{16, 8, 8, 8}},
      {RegionId{3}, Rect{0, 16, 8, 8}},
  };
  EXPECT_EQ(*greedy_next(candidates, Point{16, 4}, kPlane), (RegionId{9}));
  EXPECT_EQ(*greedy_next(candidates, Point{16, 8}, kPlane), (RegionId{9}));
  EXPECT_EQ(*greedy_next(candidates, Point{20, 8}, kPlane), (RegionId{2}));
  EXPECT_EQ(*greedy_next(candidates, Point{4, 16}, kPlane), (RegionId{9}));
  EXPECT_EQ(*greedy_next(candidates, Point{0, 20}, kPlane), (RegionId{3}));
  // Without the owner among them, distance, area and id decide.
  EXPECT_EQ(*greedy_next(std::span(candidates).subspan(1), Point{16, 4},
                         kPlane),
            (RegionId{2}));
}

TEST(Router, RouteToSelf) {
  Partition p(kPlane);
  p.add_node(make_node(1, 10, 10));
  const RegionId root = p.create_root(NodeId{1});
  const auto r = route_greedy(p, root, Point{32, 32});
  EXPECT_TRUE(r.reached);
  EXPECT_EQ(r.executor, root);
  EXPECT_EQ(r.hops, 0u);
}

TEST(Router, ReachesEveryRegionFromEveryRegion) {
  const Partition p = grid16();
  ASSERT_EQ(p.region_count(), 16u);
  for (const auto& [from, fr] : p.regions()) {
    for (const auto& [to, tr] : p.regions()) {
      const auto r = route_greedy(p, from, tr.rect.center());
      EXPECT_TRUE(r.reached);
      EXPECT_EQ(r.executor, to);
    }
  }
}

TEST(Router, HopCountMatchesManhattanOnUniformGrid) {
  const Partition p = grid16();
  // Opposite corners of a 4x4 grid: exactly 6 hops under greedy routing.
  const RegionId from = p.locate({1, 1});
  const auto r = route_greedy(p, from, Point{63, 63});
  EXPECT_TRUE(r.reached);
  EXPECT_EQ(r.hops, 6u);
  // Path is loop-free on a uniform grid.
  std::set<RegionId> unique(r.path.begin(), r.path.end());
  EXPECT_EQ(unique.size(), r.path.size());
}

TEST(Router, PathEndpointsAreSourceAndExecutor) {
  const Partition p = grid16();
  const RegionId from = p.locate({1, 1});
  const auto r = route_greedy(p, from, Point{50, 50});
  ASSERT_TRUE(r.reached);
  EXPECT_EQ(r.path.front(), from);
  EXPECT_EQ(r.path.back(), r.executor);
}

TEST(Router, InvalidSourceFails) {
  const Partition p = grid16();
  const auto r = route_greedy(p, RegionId{9999}, Point{1, 1});
  EXPECT_FALSE(r.reached);
}

TEST(Router, OverlappingNeighborsForDissemination) {
  const Partition p = grid16();
  // Query area centered in one region, spilling into its neighbors.
  const RegionId executor = p.locate({24, 24});
  const Rect query{14, 14, 16, 16};
  const auto overlapping = overlapping_neighbors(p, executor, query);
  // The executor's region is <16,16,16,16>; the query spills across its
  // west and south edges into the two edge-adjacent regions there (the SW
  // corner region touches only at a corner and is not a neighbor).
  EXPECT_EQ(overlapping.size(), 2u);
  for (const RegionId rid : overlapping) {
    EXPECT_TRUE(p.region(rid).rect.intersects(query));
  }
}

TEST(Router, DisseminationSkipsNonOverlapping) {
  const Partition p = grid16();
  const RegionId executor = p.locate({24, 24});
  const Rect tiny{23, 23, 2, 2};  // strictly interior
  EXPECT_TRUE(overlapping_neighbors(p, executor, tiny).empty());
}

}  // namespace
}  // namespace geogrid::overlay
