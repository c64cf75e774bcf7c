#include "core/engine.h"

#include <cassert>

#include "dualpeer/dual_ops.h"
#include "metrics/collector.h"
#include "overlay/basic_ops.h"

namespace geogrid::core {

std::string_view grid_mode_name(GridMode mode) {
  switch (mode) {
    case GridMode::kBasic: return "Basic GeoGrid";
    case GridMode::kDualPeer: return "GeoGrid+Dual Peer";
    case GridMode::kDualPeerAdaptive: return "GeoGrid+Dual Peer+Adaptation";
    case GridMode::kCanBaseline: return "CAN-style random split";
  }
  return "unknown";
}

GridSimulation::GridSimulation(SimulationOptions options)
    : options_(std::move(options)), rng_(options_.seed),
      partition_(options_.field.plane) {
  field_ = std::make_unique<workload::HotSpotField>(options_.field, rng_);
  driver_ = std::make_unique<loadbalance::AdaptationDriver>(
      partition_, load_fn(), options_.planner);
  for (std::size_t i = 0; i < options_.node_count; ++i) add_node();
}

overlay::LoadFn GridSimulation::load_fn() const {
  return [this](RegionId rid) {
    return field_->region_load(partition_.region(rid).rect);
  };
}

RegionId GridSimulation::random_entry_region() {
  // The bootstrap server hands the joiner a uniformly random existing node;
  // entering through a random node is entering through a random region.
  const std::size_t count = partition_.region_count();
  if (count == 0) return kInvalidRegion;
  auto it = partition_.regions().begin();
  std::advance(it, static_cast<std::ptrdiff_t>(rng_.uniform_index(count)));
  return it->first;
}

NodeId GridSimulation::add_node() {
  const Point coord{
      rng_.uniform(options_.field.plane.x + kGeoEps,
                   options_.field.plane.right()),
      rng_.uniform(options_.field.plane.y + kGeoEps,
                   options_.field.plane.top())};
  return add_node_at(coord, options_.capacities.sample(rng_));
}

NodeId GridSimulation::add_node_at(const Point& coord, double capacity) {
  net::NodeInfo info;
  info.id = partition_.allocate_node_id();
  info.coord = coord;
  info.capacity = capacity;

  const RegionId entry = random_entry_region();
  overlay::JoinResult result;
  switch (options_.mode) {
    case GridMode::kBasic:
      result = overlay::basic_join(partition_, info, entry);
      break;
    case GridMode::kCanBaseline: {
      const Point random_point{
          rng_.uniform(options_.field.plane.x + kGeoEps,
                       options_.field.plane.right()),
          rng_.uniform(options_.field.plane.y + kGeoEps,
                       options_.field.plane.top())};
      result = overlay::can_join(partition_, info, random_point, entry);
      break;
    }
    case GridMode::kDualPeer:
    case GridMode::kDualPeerAdaptive:
      result = dualpeer::dual_join(partition_, info, load_fn(), entry);
      break;
  }
  total_join_hops_ += result.routing_hops;
  ++join_count_;
  return info.id;
}

void GridSimulation::remove_node(NodeId node, bool crash) {
  if (options_.mode == GridMode::kBasic ||
      options_.mode == GridMode::kCanBaseline) {
    overlay::basic_leave(partition_, node);
    return;
  }
  if (crash) {
    dualpeer::dual_fail(partition_, node);
  } else {
    dualpeer::dual_leave(partition_, node);
  }
}

void GridSimulation::migrate_hotspots(std::size_t steps) {
  field_->migrate(rng_, steps);
}

Summary GridSimulation::workload_summary() const {
  return metrics::workload_summary(partition_, load_fn());
}

}  // namespace geogrid::core
