// Region algebra: the paper's cover test, edge adjacency, split/merge.
#include "common/geometry.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

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

// Ownership is the cover test with the plane's own west and south borders
// closed: a region on the border owns the points on it, an inner west or
// south edge stays open, and nothing owns a point off the plane.
TEST(Rect, OwnsClosesOnlyThePlaneBorder) {
  const Rect plane{0, 0, 10, 10};
  EXPECT_TRUE(plane.owns({0, 0}, plane));
  EXPECT_TRUE(plane.owns({0, 5}, plane));
  EXPECT_TRUE(plane.owns({5, 0}, plane));
  EXPECT_TRUE(plane.owns({10, 10}, plane));
  EXPECT_FALSE(plane.owns({-0.001, 5}, plane));
  EXPECT_FALSE(plane.owns({5, std::nextafter(0.0, -1.0)}, plane));
  EXPECT_FALSE(plane.owns({std::nextafter(10.0, 11.0), 5}, plane));

  const Rect south_west{0, 0, 5, 5};
  const Rect north_east{5, 5, 5, 5};
  EXPECT_TRUE(south_west.owns({0, 2}, plane));
  EXPECT_TRUE(south_west.owns({5, 5}, plane));  // the shared corner
  EXPECT_FALSE(north_east.owns({5, 5}, plane));
  EXPECT_FALSE(north_east.owns({5, 7}, plane));  // inner west edge
  EXPECT_FALSE(north_east.owns({7, 5}, plane));  // inner south edge
  EXPECT_TRUE(north_east.owns({10, 10}, plane));

  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const Point p : {Point{nan, 5}, Point{5, nan}, Point{-inf, 5},
                        Point{5, inf}}) {
    EXPECT_FALSE(plane.owns(p, plane)) << p;
  }
}

// Closed rects meet on a shared edge or a shared corner, exactly.
TEST(Rect, MeetsIsClosedAndExact) {
  const Rect a{0, 0, 10, 10};
  EXPECT_TRUE(a.meets({5, 5, 10, 10}));
  EXPECT_TRUE(a.meets({10, 3, 5, 2}));   // shared edge
  EXPECT_TRUE(a.meets({10, 10, 1, 1}));  // shared corner
  EXPECT_TRUE(a.meets({-1, -1, 1, 1}));
  EXPECT_FALSE(a.meets({std::nextafter(10.0, 11.0), 10, 1, 1}));
  EXPECT_FALSE(a.meets({3, -2, 1, std::nextafter(2.0, 1.0)}));
  EXPECT_FALSE(
      a.meets({std::numeric_limits<double>::quiet_NaN(), 0, 1, 1}));
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
// point of the closed rectangle is owned by exactly one tile.
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

  // Each point of the closed plane has exactly one owner, and no point off
  // it has any: every tile corner, each corner and edge midpoint one ulp
  // either way on both axes, and random points.
  const Rect plane{0, 0, 64, 64};
  const auto owners = [&tiles, &plane](const Point& p) {
    int owned = 0;
    for (const Rect& t : tiles) owned += t.owns(p, plane) ? 1 : 0;
    return owned;
  };
  const auto near = [](double v) {
    return std::vector{std::nextafter(v, -1e9), v, std::nextafter(v, 1e9)};
  };
  std::size_t probes = 0;
  for (const Rect& t : tiles) {
    const Point c = t.center();
    for (const double bx : {t.x, c.x, t.right()}) {
      for (const double by : {t.y, c.y, t.top()}) {
        for (const double x : near(bx)) {
          for (const double y : near(by)) {
            const bool on_plane = 0.0 <= x && x <= 64.0 && 0.0 <= y &&
                                  y <= 64.0;
            EXPECT_EQ(owners({x, y}), on_plane ? 1 : 0)
                << "point " << x << ',' << y;
            ++probes;
          }
        }
      }
    }
  }
  EXPECT_GT(probes, 5000u);
  for (int i = 0; i < 500; ++i) {
    const Point p{rng.uniform(0.0, 64.0), rng.uniform(0.0, 64.0)};
    EXPECT_EQ(owners(p), 1) << "point " << p.x << ',' << p.y;
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
