#include "overlay/basic_ops.h"

#include <algorithm>
#include <cassert>
#include <limits>

namespace geogrid::overlay {
namespace {

/// Sum of areas of the regions `node` owns as primary.
double owned_area(const Partition& partition, NodeId node) {
  double total = 0.0;
  for (RegionId rid : partition.primary_regions(node)) {
    total += partition.region(rid).rect.area();
  }
  return total;
}

}  // namespace

JoinResult basic_join(Partition& partition, const net::NodeInfo& joiner,
                      RegionId entry_region) {
  if (!partition.has_node(joiner.id)) partition.add_node(joiner);
  JoinResult result;

  if (partition.region_count() == 0) {
    result.region = partition.create_root(joiner.id);
    return result;
  }

  const RegionId entry = entry_region.valid() && partition.has_region(entry_region)
                             ? entry_region
                             : partition.regions().begin()->first;
  const RouteResult route = route_greedy(partition, entry, joiner.coord);
  assert(route.reached);
  result.routing_hops = route.hops;
  const RegionId covering = route.executor;

  // Split so that, when the joiner and the incumbent fall in different
  // halves, each keeps the half that owns its own coordinate; when they
  // share a half the incumbent keeps it (the paper's owner "retains half").
  const Region& r = partition.region(covering);
  const auto axis = split_axis_for_depth(r.split_depth);
  const auto [low, high] = r.rect.split(axis);
  const Rect& plane = partition.plane();
  const bool owner_in_low = low.owns(partition.node(r.primary).coord, plane);
  const bool joiner_in_low = low.owns(joiner.coord, plane);
  const bool give_high =
      (owner_in_low != joiner_in_low) ? !joiner_in_low : owner_in_low;
  result.region = partition.split_explicit(covering, joiner.id, give_high);
  return result;
}

JoinResult can_join(Partition& partition, const net::NodeInfo& joiner,
                    const Point& random_point, RegionId entry_region) {
  if (!partition.has_node(joiner.id)) partition.add_node(joiner);
  JoinResult result;

  if (partition.region_count() == 0) {
    result.region = partition.create_root(joiner.id);
    return result;
  }

  const RegionId entry =
      entry_region.valid() && partition.has_region(entry_region)
          ? entry_region
          : partition.regions().begin()->first;
  const RouteResult route = route_greedy(partition, entry, random_point);
  assert(route.reached);
  result.routing_hops = route.hops;
  // CAN semantics: the incumbent keeps one half, the joiner takes the
  // other; node coordinates play no role in the assignment.
  result.region = partition.split_explicit(route.executor, joiner.id,
                                           /*give_high=*/true);
  return result;
}

void basic_leave(Partition& partition, NodeId node) {
  // Promote or drop any secondary seats first (defensive: the basic system
  // has none, but engine harnesses may mix modes).
  const std::vector<RegionId> secondaries = partition.secondary_regions(node);
  for (RegionId rid : secondaries) partition.clear_secondary(rid);

  const std::vector<RegionId> owned = partition.primary_regions(node);
  for (RegionId rid : owned) {
    if (partition.has_region(rid)) repair_region(partition, rid, node);
  }
  partition.remove_node(node);
}

void repair_region(Partition& partition, RegionId region, NodeId exclude) {
  const Region& r = partition.region(region);

  // A surviving secondary owner takes over (dual-peer fail-over).
  if (r.secondary && *r.secondary != exclude) {
    partition.swap_roles(region);
    partition.clear_secondary(region);
    return;
  }
  if (r.secondary) partition.clear_secondary(region);

  // Last region in the grid: retire it with the departing founder.
  if (partition.region_count() == 1) {
    partition.retire_last_region(region);
    return;
  }

  // Merge into an adjacent region when the union is a rectangle; prefer the
  // smallest such neighbor so region sizes stay balanced.
  RegionId merge_target = kInvalidRegion;
  double merge_area = std::numeric_limits<double>::infinity();
  for (RegionId n : partition.neighbors(region)) {
    const Region& nr = partition.region(n);
    if (nr.primary == exclude) continue;
    if (!nr.rect.mergeable(r.rect)) continue;
    if (nr.rect.area() < merge_area) {
      merge_area = nr.rect.area();
      merge_target = n;
    }
  }
  if (merge_target.valid()) {
    partition.merge(merge_target, region);
    return;
  }

  // No rectangular union possible: the least-burdened neighbor owner
  // becomes caretaker of the orphaned rectangle.
  NodeId caretaker = kInvalidNode;
  double caretaker_area = std::numeric_limits<double>::infinity();
  for (RegionId n : partition.neighbors(region)) {
    const NodeId candidate = partition.region(n).primary;
    if (candidate == exclude) continue;
    const double area = owned_area(partition, candidate);
    if (area < caretaker_area) {
      caretaker_area = area;
      caretaker = candidate;
    }
  }
  assert(caretaker.valid() && "orphaned region has no eligible neighbor");
  partition.set_primary(region, caretaker);
}

}  // namespace geogrid::overlay
