// Region algebra: the paper's cover test, edge adjacency, split/merge.
#include "common/geometry.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace geogrid {
namespace {

TEST(Point, Distance) {
  EXPECT_DOUBLE_EQ(distance({0, 0}, {3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(distance({1, 1}, {1, 1}), 0.0);
  EXPECT_DOUBLE_EQ(distance({-1, 0}, {2, 4}), 5.0);
}

TEST(Rect, Accessors) {
  const Rect r{2, 3, 10, 4};
  EXPECT_DOUBLE_EQ(r.right(), 12.0);
  EXPECT_DOUBLE_EQ(r.top(), 7.0);
  EXPECT_DOUBLE_EQ(r.area(), 40.0);
  EXPECT_EQ(r.center(), (Point{7, 5}));
}

// The paper's cover test is half-open: strictly greater than the southwest
// corner, less-or-equal the northeast corner.
TEST(Rect, CoverIsHalfOpen) {
  const Rect r{0, 0, 10, 10};
  EXPECT_TRUE(r.covers({5, 5}));
  EXPECT_TRUE(r.covers({10, 10}));     // northeast corner included
  EXPECT_FALSE(r.covers({0, 5}));      // west edge excluded
  EXPECT_FALSE(r.covers({5, 0}));      // south edge excluded
  EXPECT_FALSE(r.covers({0, 0}));      // southwest corner excluded
  EXPECT_TRUE(r.covers({10, 0.001}));  // east edge included
  EXPECT_FALSE(r.covers({10.001, 5}));
}

// A point on a shared edge belongs to exactly one of the two regions.
TEST(Rect, SharedEdgePointCoveredExactlyOnce) {
  const Rect west{0, 0, 5, 10};
  const Rect east{5, 0, 5, 10};
  const Point on_edge{5, 3};
  EXPECT_TRUE(west.covers(on_edge));
  EXPECT_FALSE(east.covers(on_edge));
}

TEST(Rect, CoversInclusiveAcceptsPlaneBorder) {
  const Rect r{0, 0, 10, 10};
  EXPECT_TRUE(r.covers_inclusive({0, 0}));
  EXPECT_TRUE(r.covers_inclusive({0, 5}));
  EXPECT_FALSE(r.covers_inclusive({-0.001, 5}));
}

TEST(Rect, Intersects) {
  const Rect a{0, 0, 10, 10};
  EXPECT_TRUE(a.intersects({5, 5, 10, 10}));
  EXPECT_FALSE(a.intersects({10, 0, 5, 10}));  // touching edge: no area
  EXPECT_FALSE(a.intersects({11, 11, 2, 2}));
  EXPECT_TRUE(a.intersects({-1, -1, 2, 2}));
}

TEST(Rect, IntersectionGeometry) {
  const Rect a{0, 0, 10, 10};
  const auto i = a.intersection({5, 5, 10, 10});
  ASSERT_TRUE(i.has_value());
  EXPECT_EQ(*i, (Rect{5, 5, 5, 5}));
  EXPECT_FALSE(a.intersection({10, 0, 5, 10}).has_value());
}

// "Two regions are considered neighbors when their intersection is a line
// segment."
TEST(Rect, EdgeAdjacency) {
  const Rect a{0, 0, 10, 10};
  EXPECT_TRUE(a.edge_adjacent({10, 0, 5, 10}));   // full shared east edge
  EXPECT_TRUE(a.edge_adjacent({10, 5, 5, 10}));   // partial shared edge
  EXPECT_TRUE(a.edge_adjacent({0, 10, 10, 5}));   // shared north edge
  EXPECT_FALSE(a.edge_adjacent({10, 10, 5, 5}));  // corner touch only
  EXPECT_FALSE(a.edge_adjacent({11, 0, 5, 10}));  // gap
  EXPECT_FALSE(a.edge_adjacent({2, 2, 4, 4}));    // containment
}

TEST(Rect, SplitHalvesExactly) {
  const Rect r{0, 0, 64, 64};
  const auto [low_y, high_y] = r.split(Axis::kY);
  EXPECT_EQ(low_y, (Rect{0, 0, 64, 32}));
  EXPECT_EQ(high_y, (Rect{0, 32, 64, 32}));
  const auto [low_x, high_x] = r.split(Axis::kX);
  EXPECT_EQ(low_x, (Rect{0, 0, 32, 64}));
  EXPECT_EQ(high_x, (Rect{32, 0, 32, 64}));
}

TEST(Rect, SplitConservesAreaAndAdjacency) {
  const Rect r{3, 7, 10, 6};
  for (const Axis axis : {Axis::kX, Axis::kY}) {
    const auto [low, high] = r.split(axis);
    EXPECT_DOUBLE_EQ(low.area() + high.area(), r.area());
    EXPECT_TRUE(low.edge_adjacent(high));
    EXPECT_FALSE(low.intersects(high));
  }
}

TEST(Rect, MergeIsInverseOfSplit) {
  const Rect r{0, 16, 32, 16};
  for (const Axis axis : {Axis::kX, Axis::kY}) {
    const auto [low, high] = r.split(axis);
    EXPECT_TRUE(low.mergeable(high));
    EXPECT_TRUE(high.mergeable(low));
    EXPECT_EQ(low.merged(high), r);
    EXPECT_EQ(high.merged(low), r);
  }
}

TEST(Rect, MergeableRequiresRectangularUnion) {
  const Rect a{0, 0, 10, 10};
  EXPECT_TRUE(a.mergeable({10, 0, 10, 10}));
  EXPECT_TRUE(a.mergeable({0, 10, 10, 4}));
  EXPECT_FALSE(a.mergeable({10, 0, 10, 5}));   // different heights
  EXPECT_FALSE(a.mergeable({10, 2, 10, 10}));  // offset
  EXPECT_FALSE(a.mergeable({11, 0, 10, 10}));  // gap
  EXPECT_FALSE(a.mergeable({10, 10, 10, 10})); // diagonal
}

TEST(Rect, DistanceToPoint) {
  const Rect r{0, 0, 10, 10};
  EXPECT_DOUBLE_EQ(r.distance_to({5, 5}), 0.0);
  EXPECT_DOUBLE_EQ(r.distance_to({15, 5}), 5.0);
  EXPECT_DOUBLE_EQ(r.distance_to({13, 14}), 5.0);  // corner: 3-4-5
  EXPECT_DOUBLE_EQ(r.distance_to({-3, -4}), 5.0);
}

TEST(Rect, ClampPoint) {
  const Rect r{0, 0, 10, 10};
  EXPECT_EQ(r.clamp({15, -3}), (Point{10, 0}));
  EXPECT_EQ(r.clamp({4, 5}), (Point{4, 5}));
}

TEST(Axis, SplitAxisAlternatesWithDepth) {
  using geogrid::opposite;
  EXPECT_EQ(opposite(Axis::kX), Axis::kY);
  EXPECT_EQ(opposite(Axis::kY), Axis::kX);
}

// Property: repeated splits tile the original rectangle exactly; every
// random point is covered by exactly one tile.
TEST(RectProperty, RecursiveSplitTilesPlane) {
  Rng rng(2024);
  std::vector<Rect> tiles{Rect{0, 0, 64, 64}};
  for (int depth = 0; depth < 6; ++depth) {
    std::vector<Rect> next;
    for (const Rect& t : tiles) {
      const auto [low, high] =
          t.split(depth % 2 == 0 ? Axis::kY : Axis::kX);
      next.push_back(low);
      next.push_back(high);
    }
    tiles = std::move(next);
  }
  double area = 0.0;
  for (const Rect& t : tiles) area += t.area();
  EXPECT_NEAR(area, 64.0 * 64.0, 1e-9);

  // covers() implies covers_inclusive(), which lets every cover test in the
  // tree use covers_inclusive() alone.
  const auto covers_implies_inclusive = [&tiles](const Point& p) {
    for (const Rect& t : tiles) {
      if (t.covers(p)) {
        EXPECT_TRUE(t.covers_inclusive(p)) << "point " << p.x << ',' << p.y;
      }
    }
  };
  for (const Rect& t : tiles) {
    for (const Point& corner : {Point{t.x, t.y}, Point{t.right(), t.y},
                                Point{t.x, t.top()},
                                Point{t.right(), t.top()}}) {
      covers_implies_inclusive(corner);
    }
  }
  for (int i = 0; i < 500; ++i) {
    const Point p{rng.uniform(1e-9, 64.0), rng.uniform(1e-9, 64.0)};
    int covered = 0;
    for (const Rect& t : tiles) covered += t.covers(p) ? 1 : 0;
    EXPECT_EQ(covered, 1) << "point " << p.x << ',' << p.y;
    covers_implies_inclusive(p);
  }
}

// Property: for random adjacent pairs produced by splitting, adjacency is
// symmetric and merge commutes.
TEST(RectProperty, AdjacencySymmetric) {
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    const Rect r{rng.uniform(0, 10), rng.uniform(0, 10),
                 rng.uniform(1, 20), rng.uniform(1, 20)};
    const Rect s{rng.uniform(0, 10), rng.uniform(0, 10),
                 rng.uniform(1, 20), rng.uniform(1, 20)};
    EXPECT_EQ(r.edge_adjacent(s), s.edge_adjacent(r));
    EXPECT_EQ(r.mergeable(s), s.mergeable(r));
    EXPECT_EQ(r.intersects(s), s.intersects(r));
  }
}

}  // namespace
}  // namespace geogrid
