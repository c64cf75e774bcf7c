#include "loadbalance/workload_index.h"

#include <algorithm>
#include <limits>

namespace geogrid::loadbalance {

using overlay::LoadFn;
using overlay::Partition;

double node_load(const Partition& partition, const LoadFn& load_of,
                 NodeId node) {
  double total = 0.0;
  for (RegionId rid : partition.primary_regions(node)) total += load_of(rid);
  return total;
}

double node_index(const Partition& partition, const LoadFn& load_of,
                  NodeId node) {
  return net::load_index(node_load(partition, load_of, node),
                         partition.node(node).capacity);
}

double region_index(const Partition& partition, const LoadFn& load_of,
                    RegionId region) {
  const auto& r = partition.region(region);
  return net::load_index(load_of(region), partition.node(r.primary).capacity);
}

std::vector<NodeId> neighbor_owners(const Partition& partition, NodeId node) {
  std::vector<NodeId> owners;
  for (RegionId rid : partition.primary_regions(node)) {
    for (RegionId n : partition.neighbors(rid)) {
      const NodeId owner = partition.region(n).primary;
      if (owner == node) continue;
      if (std::find(owners.begin(), owners.end(), owner) == owners.end()) {
        owners.push_back(owner);
      }
    }
  }
  return owners;
}

double min_neighbor_index(const Partition& partition, const LoadFn& load_of,
                          NodeId node) {
  double lowest = std::numeric_limits<double>::infinity();
  for (NodeId owner : neighbor_owners(partition, node)) {
    lowest = std::min(lowest, node_index(partition, load_of, owner));
  }
  return lowest;
}

bool should_adapt(const Partition& partition, const LoadFn& load_of,
                  NodeId node, double trigger_ratio) {
  const double own = node_index(partition, load_of, node);
  if (own <= 0.0) return false;
  const double lowest = min_neighbor_index(partition, load_of, node);
  if (!std::isfinite(lowest)) return false;
  return own > trigger_ratio * lowest;
}

std::vector<double> all_node_indexes(const Partition& partition,
                                     const LoadFn& load_of) {
  std::vector<double> indexes;
  indexes.reserve(partition.node_count());
  for (const auto& [id, info] : partition.nodes()) {
    indexes.push_back(node_index(partition, load_of, id));
  }
  return indexes;
}

}  // namespace geogrid::loadbalance
