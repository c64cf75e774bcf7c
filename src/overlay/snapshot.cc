#include "overlay/snapshot.h"

namespace geogrid::overlay {

net::RegionSnapshot make_snapshot(const Partition& partition, RegionId id,
                                  const LoadFn& load_of) {
  const Region& r = partition.region(id);
  net::RegionSnapshot s;
  s.region = r.id;
  s.rect = r.rect;
  s.primary = partition.node(r.primary);
  if (r.secondary) s.secondary = partition.node(*r.secondary);
  s.load = load_of ? load_of(id) : 0.0;
  s.workload_index = net::load_index(s.load, s.primary.capacity);
  s.split_depth = r.split_depth;
  return s;
}

std::vector<net::RegionSnapshot> neighbor_snapshots(const Partition& partition,
                                                    RegionId id,
                                                    const LoadFn& load_of) {
  std::vector<net::RegionSnapshot> out;
  const auto& links = partition.neighbors(id);
  out.reserve(links.size());
  for (RegionId n : links) out.push_back(make_snapshot(partition, n, load_of));
  return out;
}

}  // namespace geogrid::overlay
