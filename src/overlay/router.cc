#include "overlay/router.h"

#include <algorithm>
#include <unordered_set>

#include "overlay/partition.h"

namespace geogrid::overlay {

RouteResult route_greedy(const Partition& partition, RegionId from,
                         const Point& target) {
  RouteResult result;
  if (!partition.has_region(from)) return result;

  // Greedy descent with backtracking: each forwarding step goes to the
  // best unvisited neighbor; a dead end (all neighbors visited) returns the
  // request to the previous hop, which costs a hop like any other
  // forwarding step.  Visits are never repeated, so the walk terminates.
  std::unordered_set<RegionId> visited;
  std::vector<RegionId> stack{from};
  visited.insert(from);
  result.path.push_back(from);

  while (!stack.empty()) {
    const RegionId current = stack.back();
    const Region& r = partition.region(current);
    if (r.rect.owns(target, partition.plane())) {
      result.reached = true;
      result.executor = current;
      return result;
    }
    std::vector<HopCandidate> candidates;
    const auto& links = partition.neighbors(current);
    candidates.reserve(links.size());
    for (RegionId n : links) {
      candidates.push_back(HopCandidate{n, partition.region(n).rect});
    }
    const auto next = greedy_next(
        candidates, target, partition.plane(),
        [&visited](RegionId id) { return visited.contains(id); });
    if (next) {
      visited.insert(*next);
      stack.push_back(*next);
      result.path.push_back(*next);
      ++result.hops;
    } else {
      stack.pop_back();  // backtrack to the previous hop
      if (!stack.empty()) {
        result.path.push_back(stack.back());
        ++result.hops;
      }
    }
  }
  return result;
}

std::vector<RegionId> overlapping_neighbors(const Partition& partition,
                                            RegionId executor,
                                            const Rect& query_area) {
  std::vector<RegionId> out;
  for (RegionId n : partition.neighbors(executor)) {
    if (partition.region(n).rect.intersects(query_area)) out.push_back(n);
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace geogrid::overlay
