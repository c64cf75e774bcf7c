#include "overlay/partition.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <sstream>

#include "overlay/router.h"

namespace geogrid::overlay {

namespace {

const std::vector<RegionId> kNoRegions;

}  // namespace

// --- Node table ------------------------------------------------------------

NodeId Partition::add_node(const net::NodeInfo& info) {
  assert(info.id.valid());
  assert(!nodes_.contains(info.id));
  nodes_[info.id] = info;
  next_node_id_ = std::max(next_node_id_, info.id.value + 1);
  return info.id;
}

void Partition::remove_node(NodeId id) {
  assert(!node_has_seat(id));
  nodes_.erase(id);
  primary_index_.erase(id);
  secondary_index_.erase(id);
}

const net::NodeInfo& Partition::node(NodeId id) const {
  auto it = nodes_.find(id);
  assert(it != nodes_.end());
  return it->second;
}

// --- Region access -----------------------------------------------------------

const Region& Partition::region(RegionId id) const {
  auto it = regions_.find(id);
  assert(it != regions_.end());
  return it->second;
}

const std::vector<RegionId>& Partition::neighbors(RegionId id) const {
  auto it = adjacency_.find(id);
  return it == adjacency_.end() ? kNoRegions : it->second;
}

const std::vector<RegionId>& Partition::primary_regions(NodeId id) const {
  auto it = primary_index_.find(id);
  return it == primary_index_.end() ? kNoRegions : it->second;
}

const std::vector<RegionId>& Partition::secondary_regions(NodeId id) const {
  auto it = secondary_index_.find(id);
  return it == secondary_index_.end() ? kNoRegions : it->second;
}

RegionId Partition::locate(const Point& p, RegionId hint) const {
  if (regions_.empty()) return kInvalidRegion;
  RegionId current = hint.valid() && regions_.contains(hint)
                         ? hint
                         : regions_.begin()->first;
  const RouteResult r = route_greedy(*this, current, p);
  return r.reached ? r.executor : kInvalidRegion;
}

// --- Mechanics ---------------------------------------------------------------

RegionId Partition::create_root(NodeId primary) {
  assert(regions_.empty());
  assert(nodes_.contains(primary));
  const RegionId id = allocate_region_id();
  regions_[id] = Region{id, plane_, 0, primary, std::nullopt};
  adjacency_[id] = {};
  index_add(primary_index_, primary, id);
  ++geometry_version_;
  return id;
}

RegionId Partition::split(RegionId id, NodeId other_primary) {
  const Region& r = region(id);
  const Point owner_coord = node(r.primary).coord;
  const auto axis = split_axis_for_depth(r.split_depth);
  const auto [low, high] = r.rect.split(axis);
  // The old primary keeps the half that owns its own coordinate so the
  // geographic node-to-region mapping survives the split.
  const bool owner_keeps_low = low.owns(owner_coord, plane_);
  return split_explicit(id, other_primary, /*give_high=*/owner_keeps_low);
}

RegionId Partition::split_explicit(RegionId id, NodeId other_primary,
                                   bool give_high) {
  assert(nodes_.contains(other_primary));
  auto it = regions_.find(id);
  assert(it != regions_.end());
  Region& old_region = it->second;
  const auto axis = split_axis_for_depth(old_region.split_depth);
  const auto [low, high] = old_region.rect.split(axis);

  const RegionId new_id = allocate_region_id();
  Region fresh;
  fresh.id = new_id;
  fresh.rect = give_high ? high : low;
  fresh.split_depth = old_region.split_depth + 1;
  fresh.primary = other_primary;

  old_region.rect = give_high ? low : high;
  old_region.split_depth += 1;

  regions_[new_id] = fresh;
  index_add(primary_index_, other_primary, new_id);

  // Adjacency: both halves keep a subset of the old neighbors, plus each
  // other.  Relink against the old neighbor set.
  std::vector<RegionId> candidates = adjacency_[id];
  adjacency_[new_id] = {};
  relink_region(id, candidates);
  candidates.push_back(id);
  relink_region(new_id, candidates);
  ++geometry_version_;
  return new_id;
}

void Partition::retire_last_region(RegionId id) {
  assert(regions_.size() == 1 && regions_.contains(id));
  const Region& r = region(id);
  index_remove(primary_index_, r.primary, id);
  if (r.secondary) index_remove(secondary_index_, *r.secondary, id);
  adjacency_.erase(id);
  regions_.erase(id);
  ++geometry_version_;
}

void Partition::merge(RegionId into, RegionId from) {
  auto into_it = regions_.find(into);
  auto from_it = regions_.find(from);
  assert(into_it != regions_.end() && from_it != regions_.end());
  Region& dst = into_it->second;
  Region& src = from_it->second;
  assert(dst.rect.mergeable(src.rect));

  // Release src's seats.
  index_remove(primary_index_, src.primary, from);
  if (src.secondary) index_remove(secondary_index_, *src.secondary, from);

  // Union rect; depth becomes the shallower of the two minus nothing —
  // we keep max(depth)-1 so future splits alternate sensibly.
  dst.rect = dst.rect.merged(src.rect);
  dst.split_depth = std::max(0, std::max(dst.split_depth, src.split_depth) - 1);

  // Adjacency: dst inherits src's neighbors (minus each other), dedup.
  std::vector<RegionId> candidates = adjacency_[from];
  for (RegionId n : adjacency_[into]) candidates.push_back(n);
  candidates.erase(std::remove_if(candidates.begin(), candidates.end(),
                                  [&](RegionId n) {
                                    return n == into || n == from;
                                  }),
                   candidates.end());
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());

  // Drop src from the graph (copy the list: unlink mutates it).
  const std::vector<RegionId> src_links = adjacency_[from];
  for (RegionId n : src_links) unlink_neighbors(from, n);
  adjacency_.erase(from);
  regions_.erase(from);

  relink_region(into, candidates);
  ++geometry_version_;
}

void Partition::set_primary(RegionId id, NodeId node_id) {
  assert(nodes_.contains(node_id));
  auto it = regions_.find(id);
  assert(it != regions_.end());
  Region& r = it->second;
  if (r.primary.valid()) index_remove(primary_index_, r.primary, id);
  r.primary = node_id;
  index_add(primary_index_, node_id, id);
}

void Partition::set_secondary(RegionId id, NodeId node_id) {
  assert(nodes_.contains(node_id));
  auto it = regions_.find(id);
  assert(it != regions_.end());
  Region& r = it->second;
  assert(!r.secondary.has_value());
  r.secondary = node_id;
  index_add(secondary_index_, node_id, id);
}

void Partition::clear_secondary(RegionId id) {
  auto it = regions_.find(id);
  assert(it != regions_.end());
  Region& r = it->second;
  if (!r.secondary) return;
  index_remove(secondary_index_, *r.secondary, id);
  r.secondary.reset();
}

void Partition::swap_roles(RegionId id) {
  auto it = regions_.find(id);
  assert(it != regions_.end());
  Region& r = it->second;
  assert(r.secondary.has_value());
  const NodeId old_primary = r.primary;
  const NodeId old_secondary = *r.secondary;
  index_remove(primary_index_, old_primary, id);
  index_remove(secondary_index_, old_secondary, id);
  r.primary = old_secondary;
  r.secondary = old_primary;
  index_add(primary_index_, old_secondary, id);
  index_add(secondary_index_, old_primary, id);
}

void Partition::swap_primaries(RegionId a, RegionId b) {
  assert(a != b);
  auto ia = regions_.find(a);
  auto ib = regions_.find(b);
  assert(ia != regions_.end() && ib != regions_.end());
  const NodeId pa = ia->second.primary;
  const NodeId pb = ib->second.primary;
  index_remove(primary_index_, pa, a);
  index_remove(primary_index_, pb, b);
  ia->second.primary = pb;
  ib->second.primary = pa;
  index_add(primary_index_, pb, a);
  index_add(primary_index_, pa, b);
}

void Partition::swap_primary_with_secondary(RegionId a, RegionId b) {
  assert(a != b);
  auto ia = regions_.find(a);
  auto ib = regions_.find(b);
  assert(ia != regions_.end() && ib != regions_.end());
  assert(ib->second.secondary.has_value());
  const NodeId pa = ia->second.primary;
  const NodeId sb = *ib->second.secondary;
  index_remove(primary_index_, pa, a);
  index_remove(secondary_index_, sb, b);
  ia->second.primary = sb;
  ib->second.secondary = pa;
  index_add(primary_index_, sb, a);
  index_add(secondary_index_, pa, b);
}

// --- Adjacency helpers -------------------------------------------------------

void Partition::link_neighbors(RegionId a, RegionId b) {
  auto& va = adjacency_[a];
  if (std::find(va.begin(), va.end(), b) == va.end()) va.push_back(b);
  auto& vb = adjacency_[b];
  if (std::find(vb.begin(), vb.end(), a) == vb.end()) vb.push_back(a);
}

void Partition::unlink_neighbors(RegionId a, RegionId b) {
  if (auto it = adjacency_.find(a); it != adjacency_.end()) {
    std::erase(it->second, b);
  }
  if (auto it = adjacency_.find(b); it != adjacency_.end()) {
    std::erase(it->second, a);
  }
}

void Partition::relink_region(RegionId id,
                              const std::vector<RegionId>& candidates) {
  const Rect rect = region(id).rect;
  // Remove stale links.
  const std::vector<RegionId> old_links = adjacency_[id];
  for (RegionId n : old_links) {
    if (!regions_.contains(n) || !rect.edge_adjacent(region(n).rect)) {
      unlink_neighbors(id, n);
    }
  }
  // Add new links from the candidate set.
  for (RegionId n : candidates) {
    if (n == id || !regions_.contains(n)) continue;
    if (rect.edge_adjacent(region(n).rect)) link_neighbors(id, n);
  }
}

void Partition::index_add(
    std::unordered_map<NodeId, std::vector<RegionId>>& index, NodeId node_id,
    RegionId region_id) {
  index[node_id].push_back(region_id);
}

void Partition::index_remove(
    std::unordered_map<NodeId, std::vector<RegionId>>& index, NodeId node_id,
    RegionId region_id) {
  auto it = index.find(node_id);
  assert(it != index.end());
  [[maybe_unused]] const auto erased = std::erase(it->second, region_id);
  assert(erased == 1);
}

// --- Invariants ---------------------------------------------------------------

std::vector<std::string> Partition::validate() const {
  std::vector<std::string> errors = validate_fast();

  // Pairwise disjointness and adjacency completeness (O(R^2)).
  std::vector<const Region*> all;
  all.reserve(regions_.size());
  for (const auto& [id, r] : regions_) all.push_back(&r);
  for (std::size_t i = 0; i < all.size(); ++i) {
    for (std::size_t j = i + 1; j < all.size(); ++j) {
      const Region& a = *all[i];
      const Region& b = *all[j];
      if (a.rect.intersects(b.rect)) {
        std::ostringstream os;
        os << "regions overlap: " << a.id << a.rect << " vs " << b.id << b.rect;
        errors.push_back(os.str());
      }
      const bool adjacent = a.rect.edge_adjacent(b.rect);
      const auto& na = neighbors(a.id);
      const bool linked = std::find(na.begin(), na.end(), b.id) != na.end();
      if (adjacent != linked) {
        std::ostringstream os;
        os << "adjacency mismatch between " << a.id << " and " << b.id
           << ": geometric=" << adjacent << " linked=" << linked;
        errors.push_back(os.str());
      }
    }
  }
  return errors;
}

std::vector<std::string> Partition::validate_fast() const {
  std::vector<std::string> errors;

  // Area conservation.
  double total = 0.0;
  for (const auto& [id, r] : regions_) {
    total += r.rect.area();
    if (r.rect.width <= 0.0 || r.rect.height <= 0.0) {
      errors.push_back("degenerate region " + r.rect.to_string());
    }
    if (!r.primary.valid()) {
      std::ostringstream os;
      os << "region " << id << " has no primary";
      errors.push_back(os.str());
    } else if (!nodes_.contains(r.primary)) {
      std::ostringstream os;
      os << "region " << id << " primary " << r.primary << " unknown";
      errors.push_back(os.str());
    }
    if (r.secondary) {
      if (!nodes_.contains(*r.secondary)) {
        std::ostringstream os;
        os << "region " << id << " secondary " << *r.secondary << " unknown";
        errors.push_back(os.str());
      }
      if (*r.secondary == r.primary) {
        std::ostringstream os;
        os << "region " << id << " primary == secondary";
        errors.push_back(os.str());
      }
    }
  }
  if (!regions_.empty() &&
      std::abs(total - plane_.area()) > plane_.area() * 1e-9) {
    std::ostringstream os;
    os << "area not conserved: regions sum to " << total << " but plane is "
       << plane_.area();
    errors.push_back(os.str());
  }

  // Adjacency symmetry + geometric truth of recorded links.
  for (const auto& [id, links] : adjacency_) {
    if (!regions_.contains(id)) {
      std::ostringstream os;
      os << "adjacency entry for retired region " << id;
      errors.push_back(os.str());
      continue;
    }
    for (RegionId n : links) {
      if (!regions_.contains(n)) {
        std::ostringstream os;
        os << "region " << id << " linked to retired region " << n;
        errors.push_back(os.str());
        continue;
      }
      const auto& back = neighbors(n);
      if (std::find(back.begin(), back.end(), id) == back.end()) {
        std::ostringstream os;
        os << "asymmetric adjacency " << id << " -> " << n;
        errors.push_back(os.str());
      }
      if (!region(id).rect.edge_adjacent(region(n).rect)) {
        std::ostringstream os;
        os << "false adjacency " << id << " -> " << n;
        errors.push_back(os.str());
      }
    }
  }

  // Ownership indexes match region records.
  for (const auto& [node_id, list] : primary_index_) {
    for (RegionId rid : list) {
      if (!regions_.contains(rid) || region(rid).primary != node_id) {
        std::ostringstream os;
        os << "primary index stale: " << node_id << " -> " << rid;
        errors.push_back(os.str());
      }
    }
  }
  for (const auto& [node_id, list] : secondary_index_) {
    for (RegionId rid : list) {
      if (!regions_.contains(rid) || !region(rid).secondary ||
          *region(rid).secondary != node_id) {
        std::ostringstream os;
        os << "secondary index stale: " << node_id << " -> " << rid;
        errors.push_back(os.str());
      }
    }
  }
  return errors;
}

}  // namespace geogrid::overlay
