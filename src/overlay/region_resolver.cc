#include "overlay/region_resolver.h"

#include <algorithm>
#include <cmath>

namespace geogrid::overlay {

RegionResolver::RegionResolver(const Partition& partition)
    : partition_(partition) {}

void RegionResolver::refresh() {
  if (partition_.geometry_version() == version_) return;
  rebuild();
  version_ = partition_.geometry_version();
}

void RegionResolver::rebuild() {
  const std::size_t count = partition_.region_count();
  rects_.clear();
  rects_.reserve(count);

  // sqrt(R) cells per axis: a region averages O(1) covered cells and a
  // cell averages O(1) resident regions at every partition size.
  std::size_t dim = 1;
  while (dim * dim < count) ++dim;
  spec_ = UniformGridSpec::over(partition_.plane(), dim);
  grid_.assign(spec_.cell_count(), {});

  for (const auto& [id, region] : partition_.regions()) {
    rects_[id] = region.rect;
    const Rect& r = region.rect;
    const std::size_t x0 = spec_.cell_x(r.x);
    const std::size_t x1 = spec_.cell_x(r.right());
    const std::size_t y0 = spec_.cell_y(r.y);
    const std::size_t y1 = spec_.cell_y(r.top());
    for (std::size_t cx = x0; cx <= x1; ++cx) {
      for (std::size_t cy = y0; cy <= y1; ++cy) {
        grid_[spec_.index(cx, cy)].push_back(id);
      }
    }
  }
  // Canonical bucket order: cell membership above followed the partition's
  // unordered region iteration, which is not part of any contract.
  for (auto& bucket : grid_) std::sort(bucket.begin(), bucket.end());
}

RegionId RegionResolver::resolve(const Point& p, RegionId hint,
                                 bool* fast) const {
  if (const Rect* r = rects_.find(hint);
      r != nullptr && r->covers_inclusive(p)) {
    // Same answer Partition::locate(p, hint) would give — greedy descent
    // stops immediately when the start region covers the target — minus
    // the partition's hash-map traffic.
    *fast = true;
    return hint;
  }
  // A crossing, a new user, or a hint retired since the last refresh.
  // Greedy descent returns the first covering region it visits, and over
  // the connected tiling it visits every region before it gives up, so a
  // region that alone covers p is its answer from any start.  A tie or a
  // point nothing covers goes to the walk itself.
  if (const RegionId sole = sole_cover(p); sole.valid()) return sole;
  return partition_.locate(p, hint);
}

RegionId RegionResolver::sole_cover(const Point& p) const {
  if (rects_.empty()) return kInvalidRegion;
  // A rect covers_inclusive(p) when p lies within kGeoEps of it, and it is
  // bucketed by the same monotone cell mapping as the band below, so a
  // band of kGeoEps plus the rounding slack either way of p meets every
  // covering rect's cells.  Clamping keeps off-plane and non-finite
  // points in the border cells, where nothing covers them.
  const double pad = kGeoEps + rounding_slack();
  const std::size_t x1 = spec_.cell_x(p.x + pad);
  const std::size_t y0 = spec_.cell_y(p.y - pad);
  const std::size_t y1 = spec_.cell_y(p.y + pad);
  RegionId found = kInvalidRegion;
  for (std::size_t cx = spec_.cell_x(p.x - pad); cx <= x1; ++cx) {
    for (std::size_t cy = y0; cy <= y1; ++cy) {
      for (const RegionId id : grid_[spec_.index(cx, cy)]) {
        if (id == found || !rects_.find(id)->covers_inclusive(p)) continue;
        if (found.valid()) return kInvalidRegion;  // a tie
        found = id;
      }
    }
  }
  return found;
}

void RegionResolver::intersecting(const Rect& rect,
                                  std::vector<RegionId>& out) const {
  out.clear();
  if (rects_.empty()) return;
  // One-cell margin each way so regions merely edge-adjacent to `rect`
  // (whose area may lie wholly in the next cell when the rect edge sits on
  // a cell boundary) still enter the candidate set; the exact test below
  // keeps the result identical to a full region scan.
  const std::size_t x0r = spec_.cell_x(rect.x);
  const std::size_t y0r = spec_.cell_y(rect.y);
  const std::size_t x0 = x0r > 0 ? x0r - 1 : 0;
  const std::size_t x1 = spec_.cell_x(rect.right()) + 1;
  const std::size_t y0 = y0r > 0 ? y0r - 1 : 0;
  const std::size_t y1 = spec_.cell_y(rect.top()) + 1;
  for (std::size_t cx = x0; cx <= x1 && cx < spec_.dim; ++cx) {
    for (std::size_t cy = y0; cy <= y1 && cy < spec_.dim; ++cy) {
      for (const RegionId id : grid_[spec_.index(cx, cy)]) {
        const Rect& r = *rects_.find(id);
        if (r.intersects(rect) || r.edge_adjacent(rect)) out.push_back(id);
      }
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
}

}  // namespace geogrid::overlay
