// Geometry primitives for the GeoGrid coordinate space.
//
// GeoGrid (ICDCS'07) models the world as a two-dimensional geographic plane
// that is dynamically partitioned into disjoint axis-aligned rectangles, one
// per owner node.  This header provides the exact region algebra the paper
// relies on:
//
//  * the half-open cover test  (r.x < o.x <= r.x+w) && (r.y < o.y <= r.y+h),
//    the one point-in-rect rule: range queries, subscriptions and region
//    ownership all use it, ownership with the plane's own west and south
//    borders closed (Rect::owns), so every point of the closed plane has
//    exactly one owning region and no point off it has any
//  * edge adjacency ("two regions are neighbors when their intersection is a
//    line segment")
//  * half-splits along alternating dimensions and the inverse merge
//
// All coordinates are in miles on the simulated plane (the paper evaluates a
// 64 x 64 mile metropolitan area), stored as doubles.  Splits always halve a
// side, so on a plane whose corners and sides are short binary fractions
// (64 x 64, 100 x 100) every region edge is exact and neighbors share the
// very double of their common edge: covers, owns and meets compare with no
// tolerance.  On other planes a deep split's far edge can round one ulp
// away from its neighbor's.  The area and adjacency relations the overlay
// maintains (intersects, edge_adjacent, mergeable) accept a small absolute
// tolerance (kGeoEps).
#pragma once

#include <cmath>
#include <optional>
#include <ostream>
#include <string>
#include <utility>

namespace geogrid {

/// Absolute tolerance for coordinate comparisons (miles).
inline constexpr double kGeoEps = 1e-9;

/// Returns true when |a - b| <= kGeoEps.
constexpr bool almost_equal(double a, double b) noexcept {
  return (a > b ? a - b : b - a) <= kGeoEps;
}

/// Split axis. The paper splits "latitude dimension first and then longitude
/// dimension"; we encode latitude as Y and longitude as X.
enum class Axis : unsigned char { kX = 0, kY = 1 };

/// The other axis.
constexpr Axis opposite(Axis a) noexcept {
  return a == Axis::kX ? Axis::kY : Axis::kX;
}

/// A point in the geographic plane (longitude = x, latitude = y), in miles.
struct Point {
  double x = 0.0;
  double y = 0.0;

  friend constexpr bool operator==(const Point&, const Point&) = default;
};

/// Euclidean distance between two points.
inline double distance(const Point& a, const Point& b) noexcept {
  return std::hypot(a.x - b.x, a.y - b.y);
}

std::ostream& operator<<(std::ostream& os, const Point& p);

/// An axis-aligned rectangle <x, y, width, height> where (x, y) is the
/// southwest corner, exactly the region quadruple of the paper.
struct Rect {
  double x = 0.0;
  double y = 0.0;
  double width = 0.0;
  double height = 0.0;

  friend bool operator==(const Rect&, const Rect&) = default;

  constexpr double right() const noexcept { return x + width; }
  constexpr double top() const noexcept { return y + height; }
  constexpr double area() const noexcept { return width * height; }

  /// Center point (the routing target of a query with this spatial region).
  constexpr Point center() const noexcept {
    return Point{x + width / 2.0, y + height / 2.0};
  }

  /// The paper's cover test: strictly greater than the west/south edge,
  /// less-or-equal the east/north edge.  With this convention a point on a
  /// shared edge belongs to exactly one of the adjacent regions, so the
  /// partition stays a function.  A NaN coordinate is covered by nothing.
  bool covers(const Point& o) const noexcept {
    return x < o.x && o.x <= right() && y < o.y && o.y <= top();
  }

  /// Region ownership: covers(o), with this rect's west (south) edge closed
  /// where it lies on the west (south) border of `plane`, the rect the
  /// regions tile.  Every point of the closed plane is owned by exactly one
  /// region of the tiling and no point off it (or NaN) by any, so a point
  /// names its region without a tie to break.
  bool owns(const Point& o, const Rect& plane) const noexcept {
    return (x < o.x || (o.x == x && x == plane.x)) && o.x <= right() &&
           (y < o.y || (o.y == y && y == plane.y)) && o.y <= top();
  }

  /// True when the closed rectangles share at least one point: an overlap,
  /// a shared edge or a shared corner.  Exact, with no tolerance: a region
  /// that owns a point `r` covers meets `r`.
  bool meets(const Rect& r) const noexcept {
    return x <= r.right() && r.x <= right() && y <= r.top() && r.y <= top();
  }

  /// True when the rectangles overlap with positive area.
  bool intersects(const Rect& r) const noexcept;

  /// The overlapping rectangle, if the overlap has positive area.
  std::optional<Rect> intersection(const Rect& r) const noexcept;

  /// True when the intersection of the two (closed) rectangles is a line
  /// segment of positive length — the paper's neighbor-region relation.
  bool edge_adjacent(const Rect& r) const noexcept;

  /// Splits the rectangle in half along `axis`; returns {low, high} where
  /// `low` keeps the southwest corner.
  std::pair<Rect, Rect> split(Axis axis) const noexcept;

  /// True when the union of the two rectangles is itself a rectangle
  /// (identical extent on one axis, touching on the other) — the condition
  /// for the merge adaptation.
  bool mergeable(const Rect& r) const noexcept;

  /// The rectangular union; precondition: mergeable(r).
  Rect merged(const Rect& r) const noexcept;

  /// Shortest Euclidean distance from the rectangle to a point (0 inside).
  double distance_to(const Point& p) const noexcept;

  /// Clamps a point into the closed rectangle.
  Point clamp(const Point& p) const noexcept;

  std::string to_string() const;
};

std::ostream& operator<<(std::ostream& os, const Rect& r);

}  // namespace geogrid
