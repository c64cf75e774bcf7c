#include "loadbalance/snapshot_planner.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

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

/// A candidate rule: the key a qualifying candidate is ranked by (the
/// smallest wins), or nullopt when the candidate does not qualify.
using Key = std::optional<double>;

/// (a) and (f): a full donor whose secondary is stronger than the
/// subject's primary, ranked by the donor's workload index.
Key steal_secondary_key(const net::RegionSnapshot& subject,
                        const net::RegionSnapshot& c) {
  if (!c.full() || c.secondary->capacity <= subject.primary.capacity) {
    return std::nullopt;
  }
  return c.workload_index;
}

/// (b) and (h): a stronger primary whose swap strictly lowers the pair's
/// max workload index, ranked by that new max.
Key switch_primary_key(const net::RegionSnapshot& subject,
                       const net::RegionSnapshot& c) {
  const double cap_primary = subject.primary.capacity;
  const double cap_other = c.primary.capacity;
  if (cap_other <= cap_primary) return std::nullopt;
  const double old_max = std::max(
      net::load_index(subject.load, cap_primary), c.workload_index);
  const double new_max =
      swapped_max_index(subject.load, c.load, cap_primary, cap_other);
  if (new_max < old_max - 1e-12) return new_max;
  return std::nullopt;
}

/// (e) and (g): a full donor whose secondary is stronger than the
/// subject's primary, ranked by the subject's load on that secondary.
Key switch_with_secondary_key(const net::RegionSnapshot& subject,
                              const net::RegionSnapshot& c) {
  if (!c.full() || c.secondary->capacity <= subject.primary.capacity) {
    return std::nullopt;
  }
  return subject.load / c.secondary->capacity;
}

/// The plan pairing `subject` with the best candidate `rule` admits, or
/// an invalid plan when none does.
template <typename Rule>
Plan best_plan(Mechanism m, const net::RegionSnapshot& subject,
               std::span<const net::RegionSnapshot> candidates, Rule&& rule) {
  Best best;
  for (const auto& c : candidates) {
    if (const Key key = rule(subject, c)) best.offer(c.region, *key);
  }
  return best.region.valid() ? make_plan(m, subject.region, best.region)
                             : Plan{};
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
    const Plan plan = best_plan(Mechanism::kStealSecondary, subject,
                                neighbors, steal_secondary_key);
    if (plan.valid) return plan;
  }

  // (b) Switch Primary Owners -- stronger neighbor primary, strict
  // improvement of the pairwise max index.
  if (config.mechanism_enabled(Mechanism::kSwitchPrimary)) {
    const Plan plan = best_plan(Mechanism::kSwitchPrimary, subject, neighbors,
                                switch_primary_key);
    if (plan.valid) return plan;
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
    return best_plan(Mechanism::kSwitchWithNeighborSecondary, subject,
                     neighbors, switch_with_secondary_key);
  }

  return Plan{};
}

Plan plan_remote(const net::RegionSnapshot& subject,
                 std::span<const net::RegionSnapshot> candidates,
                 const PlannerConfig& config) {
  // (f) Steal Remote Secondary -- (a)'s rule, from a donor less loaded
  // than the subject.
  if (config.mechanism_enabled(Mechanism::kStealRemoteSecondary) &&
      !subject.full()) {
    const double subject_index =
        net::load_index(subject.load, subject.primary.capacity);
    const Plan plan = best_plan(
        Mechanism::kStealRemoteSecondary, subject, candidates,
        [subject_index](const net::RegionSnapshot& s,
                        const net::RegionSnapshot& c) -> Key {
          if (c.workload_index >= subject_index) return std::nullopt;
          return steal_secondary_key(s, c);
        });
    if (plan.valid) return plan;
  }

  // (g) Switch Primary with Remote Secondary -- (e)'s rule.
  if (config.mechanism_enabled(Mechanism::kSwitchWithRemoteSecondary) &&
      subject.full()) {
    const Plan plan = best_plan(Mechanism::kSwitchWithRemoteSecondary, subject,
                                candidates, switch_with_secondary_key);
    if (plan.valid) return plan;
  }

  // (h) Switch Primary with Remote Primary -- (b)'s rule, for a full
  // subject.
  if (config.mechanism_enabled(Mechanism::kSwitchWithRemotePrimary) &&
      subject.full()) {
    return best_plan(Mechanism::kSwitchWithRemotePrimary, subject, candidates,
                     switch_primary_key);
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
