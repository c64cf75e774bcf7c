// Property suite: greedy geographic routing always terminates, always
// finds the covering region, and its mean cost scales as O(sqrt(N)).
#include <gtest/gtest.h>

#include <cmath>

#include "core/engine.h"
#include "metrics/collector.h"
#include "overlay/router.h"

namespace geogrid::overlay {
namespace {

struct Params {
  core::GridMode mode;
  std::size_t nodes;
  std::uint64_t seed;
};

class RoutingProperties : public ::testing::TestWithParam<Params> {
 protected:
  core::GridSimulation make_sim() const {
    const auto [mode, nodes, seed] = GetParam();
    core::SimulationOptions opt;
    opt.mode = mode;
    opt.node_count = nodes;
    opt.seed = seed;
    opt.field.cells_x = 64;
    opt.field.cells_y = 64;
    return core::GridSimulation(opt);
  }
};

TEST_P(RoutingProperties, EveryRouteReachesTheCoveringRegion) {
  auto sim = make_sim();
  const Partition& p = sim.partition();
  Rng rng(GetParam().seed + 1);

  std::vector<RegionId> ids;
  for (const auto& [id, r] : p.regions()) ids.push_back(id);

  for (int i = 0; i < 300; ++i) {
    const RegionId from = ids[rng.uniform_index(ids.size())];
    const Point target{rng.uniform(1e-6, 64.0), rng.uniform(1e-6, 64.0)};
    const RouteResult r = route_greedy(p, from, target);
    ASSERT_TRUE(r.reached);
    EXPECT_TRUE(p.region(r.executor).rect.owns(target, p.plane()));
    EXPECT_LE(r.hops, 2 * p.region_count());
  }
}

TEST_P(RoutingProperties, MeanHopsWithinSqrtBound) {
  auto sim = make_sim();
  Rng rng(GetParam().seed + 2);
  const Summary hops =
      metrics::routing_hop_summary(sim.partition(), rng, 400);
  const double n = static_cast<double>(sim.partition().region_count());
  // The paper claims O(2*sqrt(N)); allow slack for irregular partitions.
  EXPECT_LE(hops.mean, 3.0 * std::sqrt(n) + 4.0);
}

TEST_P(RoutingProperties, DisseminationCoversExactOverlapSet) {
  auto sim = make_sim();
  const Partition& p = sim.partition();
  Rng rng(GetParam().seed + 3);
  for (int i = 0; i < 100; ++i) {
    const Point c{rng.uniform(2.0, 62.0), rng.uniform(2.0, 62.0)};
    const Rect query{c.x - 1.5, c.y - 1.5, 3.0, 3.0};
    const RegionId executor = p.locate(query.center());
    ASSERT_TRUE(executor.valid());
    const auto targets = overlapping_neighbors(p, executor, query);
    // Soundness: every target overlaps.
    for (const RegionId t : targets) {
      EXPECT_TRUE(p.region(t).rect.intersects(query));
    }
    // Completeness: every overlapping *neighbor* is targeted.
    for (const RegionId n : p.neighbors(executor)) {
      if (p.region(n).rect.intersects(query)) {
        EXPECT_NE(std::find(targets.begin(), targets.end(), n),
                  targets.end());
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    ModesAndSizes, RoutingProperties,
    ::testing::Values(Params{core::GridMode::kBasic, 100, 1},
                      Params{core::GridMode::kBasic, 400, 2},
                      Params{core::GridMode::kDualPeer, 100, 3},
                      Params{core::GridMode::kDualPeer, 400, 4},
                      Params{core::GridMode::kDualPeerAdaptive, 250, 5}),
    [](const ::testing::TestParamInfo<Params>& param_info) {
      std::string name;
      switch (param_info.param.mode) {
        case core::GridMode::kBasic: name = "Basic"; break;
        case core::GridMode::kDualPeer: name = "DualPeer"; break;
        case core::GridMode::kDualPeerAdaptive: name = "Adaptive"; break;
        case core::GridMode::kCanBaseline: name = "Can"; break;
      }
      return name + std::to_string(param_info.param.nodes) + "Seed" +
             std::to_string(param_info.param.seed);
    });

}  // namespace
}  // namespace geogrid::overlay
