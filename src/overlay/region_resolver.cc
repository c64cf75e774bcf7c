#include "overlay/region_resolver.h"

#include <algorithm>

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
    spec_.each_cell(region.rect,
                    [&](std::size_t cell) { grid_[cell].push_back(id); });
  }
  // Canonical bucket order: cell membership above followed the partition's
  // unordered region iteration, which is not part of any contract.
  for (auto& bucket : grid_) std::sort(bucket.begin(), bucket.end());
}

RegionId RegionResolver::resolve(const Point& p, RegionId hint,
                                 bool* fast) const {
  const Rect& plane = spec_.plane;
  if (const Rect* r = rects_.find(hint); r != nullptr && r->owns(p, plane)) {
    *fast = true;
    return hint;
  }
  // A crossing, a new user, or a hint retired since the last refresh.  The
  // region that owns p spans p on both axes, and it is bucketed by the
  // same monotone cell mapping as p, so it sits in p's own cell.  An
  // off-plane or non-finite p clamps into a border cell, where nothing
  // owns it.
  if (rects_.empty()) return kInvalidRegion;
  for (const RegionId id :
       grid_[spec_.index(spec_.cell_x(p.x), spec_.cell_y(p.y))]) {
    if (rects_.find(id)->owns(p, plane)) return id;
  }
  return kInvalidRegion;
}

void RegionResolver::intersecting(const Rect& rect,
                                  std::vector<RegionId>& out) const {
  out.clear();
  if (rects_.empty()) return;
  // A region meeting `rect` shares a point with it, whose cell lies in both
  // the region's bucketed cell span and the rect's: one monotone mapping
  // gives both.
  spec_.each_cell(rect, [&](std::size_t cell) {
    for (const RegionId id : grid_[cell]) {
      if (rects_.find(id)->meets(rect)) out.push_back(id);
    }
  });
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
}

}  // namespace geogrid::overlay
