#include "core/cluster.h"

#include <algorithm>
#include <map>
#include <sstream>

namespace geogrid::core {

Cluster::Cluster(Options options)
    : options_(std::move(options)), rng_(options_.seed),
      network_(loop_, rng_.fork(), options_.network) {
  bootstrap_ = std::make_unique<services::BootstrapServer>(
      network_, NodeId{0}, rng_.fork());
  geolocator_ = std::make_unique<services::Geolocator>(
      options_.node.plane, services::Geolocator::Options{}, rng_.fork());
}

Cluster::~Cluster() = default;

GeoGridNode& Cluster::spawn() {
  return spawn_at(geolocator_->random_position(),
                  options_.capacities.sample(rng_));
}

GeoGridNode& Cluster::spawn_at(const Point& coord, double capacity) {
  net::NodeInfo info;
  info.id = NodeId{next_node_id_++};
  info.coord = coord;
  info.capacity = capacity;
  auto node = std::make_unique<GeoGridNode>(network_, bootstrap_->address(),
                                            info, options_.node, rng_.fork());
  GeoGridNode& ref = *node;
  nodes_.push_back(std::move(node));
  const double delay =
      options_.join_spacing * static_cast<double>(nodes_.size());
  loop_.schedule_after(delay, [&ref] { ref.start(); });
  return ref;
}

void Cluster::grow(std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) spawn();
  run_until_joined();
}

void Cluster::run_for(double seconds) {
  loop_.run_until(loop_.now() + seconds);
}

bool Cluster::run_until_joined(double max_seconds) {
  const sim::Time deadline = loop_.now() + max_seconds;
  while (loop_.now() < deadline) {
    const bool all = std::all_of(
        nodes_.begin(), nodes_.end(),
        [](const auto& n) { return n->joined() || n->departed(); });
    if (all) return true;
    run_for(1.0);
  }
  return std::all_of(nodes_.begin(), nodes_.end(), [](const auto& n) {
    return n->joined() || n->departed();
  });
}

GeoGridNode* Cluster::primary_covering(const Point& p) {
  GeoGridNode* found = nullptr;
  for (auto& node : nodes_) {
    for (const auto& [rid, region] : node->owned()) {
      if (!region.is_primary()) continue;
      if (region.rect.owns(p, options_.node.plane)) {
        if (found != nullptr) return nullptr;  // ambiguous
        found = node.get();
      }
    }
  }
  return found;
}

void Cluster::apply_field(const workload::HotSpotField& field) {
  for (auto& node : nodes_) {
    for (const auto& [rid, region] : node->owned()) {
      node->set_region_load(rid, field.region_load(region.rect));
    }
  }
}

double Cluster::covered_area() const {
  double total = 0.0;
  for (const auto& node : nodes_) {
    if (node->departed()) continue;  // frozen state of crashed/left nodes
    for (const auto& [rid, region] : node->owned()) {
      if (region.is_primary()) total += region.rect.area();
    }
  }
  return total;
}

std::vector<std::string> Cluster::check_consistency() const {
  std::vector<std::string> errors;
  std::map<RegionId, int> primaries;
  std::map<RegionId, Rect> rects;
  for (const auto& node : nodes_) {
    if (node->departed()) continue;  // frozen state of crashed/left nodes
    for (const auto& [rid, region] : node->owned()) {
      if (!region.is_primary()) continue;
      primaries[rid] += 1;
      rects[rid] = region.rect;
    }
  }
  for (const auto& [rid, count] : primaries) {
    if (count != 1) {
      std::ostringstream os;
      os << "region " << rid << " has " << count << " primaries";
      errors.push_back(os.str());
    }
  }
  // Pairwise overlap check over the collective map.
  std::vector<std::pair<RegionId, Rect>> list(rects.begin(), rects.end());
  for (std::size_t i = 0; i < list.size(); ++i) {
    for (std::size_t j = i + 1; j < list.size(); ++j) {
      if (list[i].second.intersects(list[j].second)) {
        std::ostringstream os;
        os << "regions " << list[i].first << " and " << list[j].first
           << " overlap";
        errors.push_back(os.str());
      }
    }
  }
  const double area = covered_area();
  const double plane_area = options_.node.plane.area();
  if (!nodes_.empty() && std::abs(area - plane_area) > plane_area * 1e-9) {
    std::ostringstream os;
    os << "covered area " << area << " != plane area " << plane_area;
    errors.push_back(os.str());
  }
  return errors;
}

}  // namespace geogrid::core
