// Property suite: partition invariants hold under arbitrary seeded
// membership histories, for every grid mode.
#include <gtest/gtest.h>

#include "core/engine.h"
#include "dualpeer/dual_ops.h"
#include "overlay/basic_ops.h"

namespace geogrid {
namespace {

using core::GridMode;
using core::GridSimulation;
using core::SimulationOptions;

struct Params {
  GridMode mode;
  std::uint64_t seed;
};

class PartitionProperties : public ::testing::TestWithParam<Params> {};

TEST_P(PartitionProperties, ChurnPreservesTilingAndIndexes) {
  const auto [mode, seed] = GetParam();
  SimulationOptions opt;
  opt.mode = mode;
  opt.node_count = 0;
  opt.seed = seed;
  opt.field.cells_x = 64;
  opt.field.cells_y = 64;
  GridSimulation sim(opt);
  Rng rng(seed ^ 0xabcdef);

  std::vector<NodeId> alive;
  for (int step = 0; step < 250; ++step) {
    if (alive.size() < 4 || rng.chance(0.65)) {
      alive.push_back(sim.add_node());
    } else {
      const auto idx = rng.uniform_index(alive.size());
      sim.remove_node(alive[idx], /*crash=*/rng.chance(0.5));
      alive.erase(alive.begin() + static_cast<std::ptrdiff_t>(idx));
    }
    ASSERT_TRUE(sim.partition().validate_fast().empty()) << "step " << step;
  }
  ASSERT_TRUE(sim.partition().validate().empty());

  // Exact cover: every random point belongs to exactly one region.
  for (int i = 0; i < 300; ++i) {
    const Point p{rng.uniform(1e-6, 64.0), rng.uniform(1e-6, 64.0)};
    int covered = 0;
    for (const auto& [id, r] : sim.partition().regions()) {
      covered += r.rect.covers(p) ? 1 : 0;
    }
    EXPECT_EQ(covered, 1);
  }

  // Every alive node holds at least one seat or lost it to a merge — but
  // never a dangling seat to a dead node (validate checked that); and each
  // region's owners are alive.
  for (const auto& [id, r] : sim.partition().regions()) {
    EXPECT_TRUE(sim.partition().has_node(r.primary));
    if (r.secondary) {
      EXPECT_TRUE(sim.partition().has_node(*r.secondary));
    }
  }
}

TEST_P(PartitionProperties, LocateAgreesWithCoverTest) {
  const auto [mode, seed] = GetParam();
  SimulationOptions opt;
  opt.mode = mode;
  opt.node_count = 150;
  opt.seed = seed;
  opt.field.cells_x = 64;
  opt.field.cells_y = 64;
  GridSimulation sim(opt);
  Rng rng(seed + 99);
  for (int i = 0; i < 200; ++i) {
    const Point p{rng.uniform(1e-6, 64.0), rng.uniform(1e-6, 64.0)};
    const RegionId located = sim.partition().locate(p);
    ASSERT_TRUE(located.valid());
    EXPECT_TRUE(sim.partition().region(located).rect.owns(
        p, sim.partition().plane()));
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllModesManySeeds, PartitionProperties,
    ::testing::Values(Params{GridMode::kBasic, 1}, Params{GridMode::kBasic, 2},
                      Params{GridMode::kBasic, 3},
                      Params{GridMode::kDualPeer, 1},
                      Params{GridMode::kDualPeer, 2},
                      Params{GridMode::kDualPeer, 3},
                      Params{GridMode::kDualPeerAdaptive, 1},
                      Params{GridMode::kDualPeerAdaptive, 2},
                      Params{GridMode::kDualPeerAdaptive, 3}),
    [](const ::testing::TestParamInfo<Params>& param_info) {
      std::string name;
      switch (param_info.param.mode) {
        case GridMode::kBasic: name = "Basic"; break;
        case GridMode::kDualPeer: name = "DualPeer"; break;
        case GridMode::kDualPeerAdaptive: name = "Adaptive"; break;
        case GridMode::kCanBaseline: name = "Can"; break;
      }
      return name + "Seed" + std::to_string(param_info.param.seed);
    });

}  // namespace
}  // namespace geogrid
