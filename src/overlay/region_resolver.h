// Shared region-resolution layer between the partition and its readers.
//
// Every consumer of the partition's geometry used to pay its own price for
// "which region(s) does this point/rect concern": the sharded ingestion
// engine kept a private region-id -> rect memo for its per-user fast path,
// the directory read path swept every region per range call, and k-nearest
// ordered all R stores by rect distance on every query.  RegionResolver
// centralizes that: one rect memo plus one uniform spatial grid over the
// region rectangles, both rebuilt lazily when Partition::geometry_version()
// moves (splits/merges/retirements; owner-seat moves leave rects — and the
// cache — alone).
//
//   * resolve(p, hint)     — the write path's target resolution: when the
//     hinted region's memoized rect still owns p (Rect::owns; the
//     overwhelmingly common case for a mobile user between reports) the
//     answer is one rect test.  A crossing or a new user is answered from
//     the one grid cell p maps to: the region that owns p is bucketed
//     there.  Each point of the closed plane has exactly one owner and no
//     point off it has any, so there is no tie to break and the answer is
//     the region Partition::locate reaches from any start; an off-plane
//     or non-finite p costs one cell's tests, not a walk.
//   * intersecting(rect)   — the range-query region set: every region whose
//     closed rect meets the query's closed rect (Rect::meets), which
//     includes every region that owns a point the query covers.  Found by
//     probing only the grid cells the rect spans instead of scanning all R
//     regions.  Returned sorted by region id: canonical merge order.
//   * each_by_distance(p)  — k-nearest region discovery: expanding
//     Chebyshev rings of grid cells around p, each ring's new regions
//     handed to the visitor sorted by (rect distance, id).  The visitor
//     returns false to stop; unvisited regions are guaranteed to lie at
//     least `ring_floor` away, which is the pruning bound exact kNN needs.
//     The floor counts p's offset inside its own grid cell, so a center
//     well inside its cell can stop before ring 1.
//
// The resolver is a cache, not an authority: refresh() must be called by
// the owning engine between batches (it is cheap — one integer compare —
// when the geometry did not change).  All query methods are const and
// touch only frozen state, so one refreshed resolver may serve any number
// of concurrent reader threads.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/flat_map.h"
#include "common/geometry.h"
#include "common/ids.h"
#include "overlay/partition.h"

namespace geogrid::overlay {

/// Geometry of a uniform grid laid over a plane rectangle: dimension plus
/// per-axis cell pitch, with clamped point -> cell mapping.  Shared by the
/// region grid below and pubsub::SubscriptionIndex, so every plane-wide
/// spatial index buckets coordinates identically (same clamping, same
/// row-major cell keys).
struct UniformGridSpec {
  std::size_t dim = 1;
  Rect plane{};
  double cell_w = 0.0;
  double cell_h = 0.0;

  static UniformGridSpec over(const Rect& plane, std::size_t dim) {
    UniformGridSpec s;
    s.dim = dim < 1 ? 1 : dim;
    s.plane = plane;
    s.cell_w = plane.width / static_cast<double>(s.dim);
    s.cell_h = plane.height / static_cast<double>(s.dim);
    return s;
  }

  /// Clamped cell coordinate along one axis (out-of-plane points land in
  /// the border cells, so every point maps to a valid cell; NaN lands in
  /// cell 0).  The clamp happens before the cast, which is undefined for
  /// a value beyond the integer's range.
  std::size_t clamp_cell(double v, double origin,
                         double pitch) const noexcept {
    if (pitch <= 0.0) return 0;
    const double cell = std::floor((v - origin) / pitch);
    if (!(cell >= 0.0)) return 0;
    if (cell >= static_cast<double>(dim)) return dim - 1;
    return static_cast<std::size_t>(cell);
  }
  std::size_t cell_x(double x) const noexcept {
    return clamp_cell(x, plane.x, cell_w);
  }
  std::size_t cell_y(double y) const noexcept {
    return clamp_cell(y, plane.y, cell_h);
  }
  std::size_t index(std::size_t cx, std::size_t cy) const noexcept {
    return cy * dim + cx;
  }
  std::size_t cell_count() const noexcept { return dim * dim; }

  /// Calls fn(cell index) for every cell of [cell_x(r.x), cell_x(r.right())]
  /// x [cell_y(r.y), cell_y(r.top())], row by row: the cells a rect is
  /// bucketed into, and the cells a probe of the rect must visit.
  template <typename Fn>
  void each_cell(const Rect& r, Fn&& fn) const {
    const std::size_t x0 = cell_x(r.x);
    const std::size_t x1 = cell_x(r.right());
    const std::size_t y1 = cell_y(r.top());
    for (std::size_t cy = cell_y(r.y); cy <= y1; ++cy) {
      for (std::size_t cx = x0; cx <= x1; ++cx) fn(index(cx, cy));
    }
  }
};

class RegionResolver {
 public:
  explicit RegionResolver(const Partition& partition);

  /// Rebuilds the rect memo and region grid iff the partition geometry
  /// changed since the last refresh.  Not thread-safe against the const
  /// query methods below — call it from the batch dispatcher only.
  void refresh();

  /// The memoized rect of `region`, or null when the region is unknown to
  /// the current geometry (retired since the last refresh).
  const Rect* rect(RegionId region) const { return rects_.find(region); }

  /// The region that owns `p` (Rect::owns over the partition's plane), or
  /// kInvalidRegion when p lies off the plane or is not finite.  When the
  /// hinted region's rect still owns p *fast is set; otherwise p's grid
  /// cell answers.  Never walks the partition.
  RegionId resolve(const Point& p, RegionId hint, bool* fast) const;

  /// All regions whose closed rect meets the closed `rect` (Rect::meets),
  /// sorted by region id.  Appends to `out` (cleared first);
  /// grid-accelerated, exact, with no tolerance.
  void intersecting(const Rect& rect, std::vector<RegionId>& out) const;

  /// Region-distance candidate: orders by (rect distance, id).
  struct Candidate {
    double dist;
    RegionId region;
    bool operator<(const Candidate& o) const {
      return dist != o.dist ? dist < o.dist : region < o.region;
    }
  };

  /// Reusable working state for each_by_distance.  One scratch per reader
  /// thread amortizes the dedup map and ring buffer across a whole batch
  /// instead of reallocating them per query.
  struct NearScratch {
    common::FlatMap<RegionId, bool> seen;
    std::vector<Candidate> ring;
  };

  /// Visits regions in expanding grid rings around `p`.  Each visited
  /// region comes with its exact rect distance to p; within a ring,
  /// regions arrive sorted by (distance, id).  `ring_floor` is a lower
  /// bound on the distance of every region not yet visited — and of every
  /// region in the ring about to be enumerated: 0 for ring 0, and for
  /// ring r >= 1 p's distance to the nearest edge of its own grid cell
  /// (0 when p lies outside the cell it is clamped to) plus r - 1 cell
  /// pitches, less a rounding slack that keeps it a true lower bound on
  /// Rect::distance_to.  `proceed(ring_floor)` is
  /// asked before each ring is enumerated: returning false stops the sweep
  /// before any of the ring's dedup/distance/sort work is spent.  The
  /// visitor may additionally return false to stop mid-ring.  Visits every
  /// region when never stopped.
  template <typename Proceed, typename Visitor>
  void each_by_distance(const Point& p, NearScratch& scratch,
                        Proceed&& proceed, Visitor&& visit) const;

  std::size_t region_count() const noexcept { return rects_.size(); }

 private:
  void rebuild();

  const Partition& partition_;
  std::uint64_t version_ = ~std::uint64_t{0};
  common::FlatMap<RegionId, Rect> rects_;

  // Uniform grid over the plane bucketing region ids by rect overlap.
  // Dimension tracks sqrt(R) so a typical region covers O(1) cells and a
  // typical cell holds O(1) regions regardless of partition size.
  UniformGridSpec spec_ = UniformGridSpec::over(Rect{}, 1);
  std::vector<std::vector<RegionId>> grid_;
};

template <typename Proceed, typename Visitor>
void RegionResolver::each_by_distance(const Point& p, NearScratch& scratch,
                                      Proceed&& proceed,
                                      Visitor&& visit) const {
  if (rects_.empty()) return;
  const std::size_t pcx = spec_.cell_x(p.x);
  const std::size_t pcy = spec_.cell_y(p.y);
  const double min_pitch = spec_.cell_w < spec_.cell_h ? spec_.cell_w : spec_.cell_h;

  // A region first seen in ring r overlaps no cell of any smaller ring, so
  // its rect — and every still-unseen rect — lies beyond one of the four
  // lines r cells out from p's cell: at least p's offset to that side of
  // its cell plus (r-1) cell pitches away.  The offset is clamped to 0
  // when p lies outside its (clamped) cell.  Rects are bucketed by
  // floor((x - origin) / pitch), which can round an edge a few ulps across
  // a cell line, so the floor gives up a slack far above the rounding of
  // any coordinate on the plane.
  const double west = spec_.plane.x + static_cast<double>(pcx) * spec_.cell_w;
  const double south = spec_.plane.y + static_cast<double>(pcy) * spec_.cell_h;
  const double offset = std::max(
      0.0, std::min({p.x - west, west + spec_.cell_w - p.x, p.y - south,
                     south + spec_.cell_h - p.y}));
  const double slack = (std::abs(spec_.plane.x) + std::abs(spec_.plane.y) +
                        spec_.plane.width + spec_.plane.height) *
                       0x1p-40;
  common::FlatMap<RegionId, bool>& seen = scratch.seen;
  std::vector<Candidate>& ring_regions = scratch.ring;
  seen.clear();
  const std::size_t max_ring = spec_.dim;
  for (std::size_t ring = 0; ring <= max_ring; ++ring) {
    const double ring_floor =
        ring == 0 ? 0.0
                  : std::max(0.0, (static_cast<double>(ring) - 1.0) * min_pitch +
                                      offset - slack);
    if (!proceed(ring_floor)) return;
    ring_regions.clear();
    for (std::size_t cx = pcx >= ring ? pcx - ring : 0;
         cx <= pcx + ring && cx < spec_.dim; ++cx) {
      for (std::size_t cy = pcy >= ring ? pcy - ring : 0;
           cy <= pcy + ring && cy < spec_.dim; ++cy) {
        const std::size_t dx = cx > pcx ? cx - pcx : pcx - cx;
        const std::size_t dy = cy > pcy ? cy - pcy : pcy - cy;
        if ((dx > dy ? dx : dy) != ring) continue;  // interior: prior rings
        for (const RegionId id : grid_[spec_.index(cx, cy)]) {
          if (!seen.try_emplace(id, true).second) continue;
          ring_regions.push_back(Candidate{rects_.find(id)->distance_to(p), id});
        }
      }
    }
    std::sort(ring_regions.begin(), ring_regions.end());
    for (const Candidate& c : ring_regions) {
      if (!visit(c.region, c.dist, ring_floor)) return;
    }
    if (seen.size() == rects_.size()) return;  // every region visited
  }
}

}  // namespace geogrid::overlay
