// Greedy geographic routing.
//
// Routing in GeoGrid "works by following the straight line path through the
// two dimensional coordinate space from source to destination": each hop
// forwards the request to the immediate neighbor closest to the destination
// point until the covering region is reached.  Expected cost on an
// N-region partition is O(2*sqrt(N)) hops.
//
// Distance is measured from the neighbor's *region rectangle* to the target
// point (zero when the rectangle covers it).  Ties break on region id so
// both execution modes route identically.  A visited set guards against the
// rare plateau where no neighbor strictly improves (possible on highly
// irregular partitions): the router then falls back to the best unvisited
// neighbor, and reports failure only when it runs out of moves.
//
// The same step function drives engine mode (over Partition) and protocol
// mode (over a node's neighbor snapshots), so hop counts measured in the
// figures are the hop counts the wire protocol would produce.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "common/geometry.h"
#include "common/ids.h"
#include "net/node_info.h"

namespace geogrid::overlay {

class Partition;

/// A candidate next hop: a neighbor region and its rectangle.
struct HopCandidate {
  RegionId region{};
  Rect rect{};
};

/// Picks the next hop toward `target` among `candidates`, skipping regions
/// for which `visited` returns true.  Returns nullopt when every candidate
/// is visited.  Selection: a candidate that owns the target (Rect::owns
/// over `plane`) before one that does not, then minimum rect-to-target
/// distance, then smaller area (finer region), then smaller id.  On a
/// shared edge or corner every region whose closed rect holds the target
/// lies at distance 0, so without the owner first two of them could hand
/// a request back and forth.  Stale neighbor snapshots can overlap, so
/// more than one candidate may claim the target; the finer one wins.
///
/// The visited predicate is a template parameter, not a std::function:
/// this runs once per routing hop on every routed message, and the
/// type-erased call (plus its non-inlinable indirect branch) was
/// measurable in bench_routing_hops.  Callers pass a lambda; the
/// predicate-free overload below serves the no-filter case.
template <typename VisitedFn>
std::optional<RegionId> greedy_next(std::span<const HopCandidate> candidates,
                                    const Point& target, const Rect& plane,
                                    VisitedFn&& visited) {
  std::optional<RegionId> best;
  bool best_owns = false;
  double best_distance = std::numeric_limits<double>::infinity();
  double best_area = std::numeric_limits<double>::infinity();
  for (const auto& c : candidates) {
    if (visited(c.region)) continue;
    const bool owns = c.rect.owns(target, plane);
    const double d = c.rect.distance_to(target);
    const double a = c.rect.area();
    const bool better =
        owns != best_owns
            ? owns
            : d < best_distance - kGeoEps ||
                  (almost_equal(d, best_distance) &&
                   (a < best_area - kGeoEps ||
                    (almost_equal(a, best_area) &&
                     (!best || c.region < *best))));
    if (better) {
      best = c.region;
      best_owns = owns;
      best_distance = d;
      best_area = a;
    }
  }
  return best;
}

/// No-filter overload: every candidate is eligible.
inline std::optional<RegionId> greedy_next(
    std::span<const HopCandidate> candidates, const Point& target,
    const Rect& plane) {
  return greedy_next(candidates, target, plane,
                     [](RegionId) { return false; });
}

/// Result of routing a request through the partition.
struct RouteResult {
  bool reached = false;
  RegionId executor = kInvalidRegion;  ///< region covering the target
  std::uint32_t hops = 0;              ///< forwarding steps taken
  std::vector<RegionId> path;          ///< regions traversed, source first
};

/// Routes from region `from` to the region covering `target` over the
/// partition's adjacency graph.
RouteResult route_greedy(const Partition& partition, RegionId from,
                         const Point& target);

/// The dissemination step: once the executor region (covering the center of
/// the query area) is reached, the query is forwarded to every neighbor
/// region whose rectangle overlaps the query area.  Returns those neighbor
/// region ids.
std::vector<RegionId> overlapping_neighbors(const Partition& partition,
                                            RegionId executor,
                                            const Rect& query_area);

}  // namespace geogrid::overlay
