// Engine-mode GeoGrid simulation.
//
// GridSimulation drives the same membership policies, routing logic and
// adaptation planner as the wire protocol, but invokes them directly on the
// authoritative Partition instead of through message exchanges.  This is
// what makes the paper's sweeps (16,000 nodes x 100 random networks per
// point) tractable on one machine; the protocol-mode stack in core/node.h
// exercises the identical decision functions over real messages and the
// integration tests pin the two modes to each other.
#pragma once

#include <memory>

#include "common/rng.h"
#include "common/stats.h"
#include "core/options.h"
#include "loadbalance/driver.h"
#include "overlay/partition.h"
#include "overlay/snapshot.h"
#include "workload/hotspot.h"

namespace geogrid::core {

class GridSimulation {
 public:
  /// Creates the hot-spot field and joins `node_count` nodes, each at a
  /// uniformly random coordinate with a capacity drawn from the configured
  /// distribution, entering through a uniformly random existing region
  /// (the bootstrap server's random entry-node selection).
  explicit GridSimulation(SimulationOptions options);

  const SimulationOptions& options() const noexcept { return options_; }
  overlay::Partition& partition() noexcept { return partition_; }
  const overlay::Partition& partition() const noexcept { return partition_; }
  workload::HotSpotField& field() noexcept { return *field_; }
  loadbalance::AdaptationDriver& driver() noexcept { return *driver_; }
  Rng& rng() noexcept { return rng_; }

  /// Region load accessor bound to the hot-spot field.
  overlay::LoadFn load_fn() const;

  /// Adds one more node (random position/capacity) through the configured
  /// mode's join procedure; returns its id.
  NodeId add_node();

  /// Adds a node at an explicit position and capacity.
  NodeId add_node_at(const Point& coord, double capacity);

  /// Graceful departure or crash of `node` under the configured mode.
  void remove_node(NodeId node, bool crash);

  /// Moves every hot spot `steps` epochs.
  void migrate_hotspots(std::size_t steps = 1);

  /// Max/mean/stddev of the per-node workload index (the figures' metric).
  Summary workload_summary() const;

  /// Mean routing hops the joins of the initial build took.
  double mean_join_hops() const noexcept {
    return join_count_ == 0
               ? 0.0
               : static_cast<double>(total_join_hops_) /
                     static_cast<double>(join_count_);
  }

 private:
  RegionId random_entry_region();

  SimulationOptions options_;
  Rng rng_;
  overlay::Partition partition_;
  std::unique_ptr<workload::HotSpotField> field_;
  std::unique_ptr<loadbalance::AdaptationDriver> driver_;
  std::uint64_t total_join_hops_ = 0;
  std::uint64_t join_count_ = 0;
};

}  // namespace geogrid::core
