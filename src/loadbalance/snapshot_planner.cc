#include "loadbalance/snapshot_planner.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "overlay/region.h"

namespace geogrid::loadbalance {
namespace {

/// Pairwise max workload index after swapping primaries across loads
/// (la, lb) and capacities (ca, cb).
double swapped_max_index(double la, double lb, double ca, double cb) {
  return std::max(la / cb, lb / ca);
}

/// Keeps the candidate with the smallest key; ties break on region id.
struct Best {
  RegionId region = kInvalidRegion;
  double key = std::numeric_limits<double>::infinity();

  void offer(RegionId rid, double key_value) {
    if (key_value < key - 1e-12 ||
        (std::abs(key_value - key) <= 1e-12 &&
         (!region.valid() || rid < region))) {
      key = key_value;
      region = rid;
    }
  }
};

Plan make_plan(Mechanism m, RegionId subject, RegionId partner) {
  Plan plan;
  plan.mechanism = m;
  plan.subject = subject;
  plan.partner = partner;
  plan.valid = true;
  return plan;
}

}  // namespace

Plan plan_local(const net::RegionSnapshot& subject,
                std::span<const net::RegionSnapshot> neighbors,
                const PlannerConfig& config) {
  const double cap_primary = subject.primary.capacity;
  const double subject_load = subject.load;
  const double subject_index = net::load_index(subject_load, cap_primary);

  // (a) Steal Secondary Owner -- subject half-full; qualifying neighbor
  // with the lowest workload index donates its secondary.
  if (config.mechanism_enabled(Mechanism::kStealSecondary) &&
      !subject.full()) {
    Best best;
    for (const auto& nb : neighbors) {
      if (!nb.full()) continue;
      if (nb.secondary->capacity <= cap_primary) continue;
      best.offer(nb.region, nb.workload_index);
    }
    if (best.region.valid()) {
      return make_plan(Mechanism::kStealSecondary, subject.region,
                       best.region);
    }
  }

  // (b) Switch Primary Owners -- stronger neighbor primary, strict
  // improvement of the pairwise max index.
  if (config.mechanism_enabled(Mechanism::kSwitchPrimary)) {
    Best best;
    for (const auto& nb : neighbors) {
      const double cap_other = nb.primary.capacity;
      if (cap_other <= cap_primary) continue;
      const double old_max = std::max(subject_index, nb.workload_index);
      const double new_max =
          swapped_max_index(subject_load, nb.load, cap_primary, cap_other);
      if (new_max < old_max - 1e-12) best.offer(nb.region, new_max);
    }
    if (best.region.valid()) {
      return make_plan(Mechanism::kSwitchPrimary, subject.region, best.region);
    }
  }

  // (c) Merge with a Neighbor -- both half-full, rectangular union, merged
  // index below the average of the two.
  if (config.mechanism_enabled(Mechanism::kMergeNeighbor) && !subject.full()) {
    Best best;
    for (const auto& nb : neighbors) {
      if (nb.full()) continue;
      if (!subject.rect.mergeable(nb.rect)) continue;
      const double merged_cap =
          std::max(cap_primary, nb.primary.capacity);
      const double merged_index =
          merged_cap > 0.0 ? (subject_load + nb.load) / merged_cap : 0.0;
      const double average = (subject_index + nb.workload_index) / 2.0;
      if (merged_index < average - 1e-12) best.offer(nb.region, merged_index);
    }
    if (best.region.valid()) {
      return make_plan(Mechanism::kMergeNeighbor, subject.region, best.region);
    }
  }

  // (d) Split a Region -- full, equal owner capacities, region still
  // large enough to split.
  if (config.mechanism_enabled(Mechanism::kSplitRegion) && subject.full() &&
      overlay::splittable(subject.rect) &&
      subject.secondary->capacity == cap_primary) {
    return make_plan(Mechanism::kSplitRegion, subject.region, kInvalidRegion);
  }

  // (e) Switch Primary with a Neighbor's Secondary -- subject full.
  if (config.mechanism_enabled(Mechanism::kSwitchWithNeighborSecondary) &&
      subject.full()) {
    Best best;
    for (const auto& nb : neighbors) {
      if (!nb.full()) continue;
      const double cap_secondary = nb.secondary->capacity;
      if (cap_secondary <= cap_primary) continue;
      best.offer(nb.region, subject_load / cap_secondary);
    }
    if (best.region.valid()) {
      return make_plan(Mechanism::kSwitchWithNeighborSecondary,
                       subject.region, best.region);
    }
  }

  return Plan{};
}

Plan plan_remote(const net::RegionSnapshot& subject,
                 std::span<const net::RegionSnapshot> candidates,
                 const PlannerConfig& config) {
  const double cap_primary = subject.primary.capacity;
  const double subject_load = subject.load;
  const double subject_index = net::load_index(subject_load, cap_primary);

  // (f) Steal Remote Secondary -- donor full, stronger secondary, less
  // loaded than the subject.
  if (config.mechanism_enabled(Mechanism::kStealRemoteSecondary) &&
      !subject.full()) {
    Best best;
    for (const auto& c : candidates) {
      if (!c.full()) continue;
      if (c.secondary->capacity <= cap_primary) continue;
      if (c.workload_index >= subject_index) continue;
      best.offer(c.region, c.workload_index);
    }
    if (best.region.valid()) {
      return make_plan(Mechanism::kStealRemoteSecondary, subject.region,
                       best.region);
    }
  }

  // (g) Switch Primary with Remote Secondary.
  if (config.mechanism_enabled(Mechanism::kSwitchWithRemoteSecondary) &&
      subject.full()) {
    Best best;
    for (const auto& c : candidates) {
      if (!c.full()) continue;
      const double cap_secondary = c.secondary->capacity;
      if (cap_secondary <= cap_primary) continue;
      best.offer(c.region, subject_load / cap_secondary);
    }
    if (best.region.valid()) {
      return make_plan(Mechanism::kSwitchWithRemoteSecondary, subject.region,
                       best.region);
    }
  }

  // (h) Switch Primary with Remote Primary.
  if (config.mechanism_enabled(Mechanism::kSwitchWithRemotePrimary) &&
      subject.full()) {
    Best best;
    for (const auto& c : candidates) {
      const double cap_other = c.primary.capacity;
      if (cap_other <= cap_primary) continue;
      const double old_max = std::max(subject_index, c.workload_index);
      const double new_max =
          swapped_max_index(subject_load, c.load, cap_primary, cap_other);
      if (new_max < old_max - 1e-12) best.offer(c.region, new_max);
    }
    if (best.region.valid()) {
      return make_plan(Mechanism::kSwitchWithRemotePrimary, subject.region,
                       best.region);
    }
  }

  return Plan{};
}

bool should_adapt_snapshots(double own_index,
                            std::span<const net::RegionSnapshot> neighbors,
                            double trigger_ratio) {
  if (own_index <= 0.0 || neighbors.empty()) return false;
  double lowest = std::numeric_limits<double>::infinity();
  for (const auto& nb : neighbors) {
    lowest = std::min(lowest, nb.workload_index);
  }
  return own_index > trigger_ratio * lowest;
}

}  // namespace geogrid::loadbalance
