// Mobile-user motion models.
#include "mobility/motion.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "workload/hotspot.h"

namespace geogrid::mobility {
namespace {

constexpr Rect kPlane{0.0, 0.0, 64.0, 64.0};

TEST(UserPopulation, SpawnsCountUsersWithSequentialIds) {
  UserPopulation pop(25, {}, nullptr, Rng(1));
  ASSERT_EQ(pop.users().size(), 25u);
  for (std::size_t i = 0; i < 25; ++i) {
    EXPECT_EQ(pop.users()[i].id, UserId{static_cast<std::uint32_t>(i + 1)});
    EXPECT_TRUE(kPlane.owns(pop.users()[i].position, kPlane));
    EXPECT_EQ(pop.users()[i].next_seq, 1u);
  }
}

TEST(UserPopulation, TrajectoriesAreSeedDeterministic) {
  UserPopulation a(50, {}, nullptr, Rng(99));
  UserPopulation b(50, {}, nullptr, Rng(99));
  double now = 0.0;
  for (int step = 0; step < 200; ++step) {
    now += 1.0;
    a.step(1.0, now);
    b.step(1.0, now);
  }
  for (std::size_t i = 0; i < 50; ++i) {
    EXPECT_EQ(a.users()[i].position, b.users()[i].position) << "user " << i;
  }
}

TEST(UserPopulation, MovementRespectsSpeedBoundAndPlane) {
  UserPopulation::Options opt;
  opt.min_pause = 0.0;
  opt.max_pause = 0.0;  // keep everyone moving
  UserPopulation pop(40, opt, nullptr, Rng(5));
  std::vector<Point> before;
  for (const auto& u : pop.users()) before.push_back(u.position);
  double now = 0.0;
  for (int step = 0; step < 100; ++step) {
    now += 1.0;
    pop.step(1.0, now);
    for (std::size_t i = 0; i < pop.users().size(); ++i) {
      const MobileUser& u = pop.users()[i];
      EXPECT_TRUE(kPlane.owns(u.position, kPlane));
      // One step of dt=1 covers at most max_speed miles (plus float fuzz).
      EXPECT_LE(distance(before[i], u.position), opt.max_speed + 1e-9);
      before[i] = u.position;
    }
  }
}

TEST(UserPopulation, HotspotAttractionConcentratesUsers) {
  Rng field_rng(3);
  workload::HotSpotField::Options fopt;
  fopt.hotspot_count = 2;
  workload::HotSpotField field(fopt, field_rng);

  UserPopulation::Options opt;
  opt.model = MotionModel::kHotspotAttracted;
  opt.attraction = 1.0;  // every waypoint targets a hot spot
  opt.attraction_jitter = 0.5;
  UserPopulation attracted(300, opt, &field, Rng(11));
  UserPopulation uniform(300, {}, nullptr, Rng(11));

  // Mean distance to the nearest hot spot should be far smaller for the
  // attracted population's spawn points.
  const auto mean_nearest = [&](const UserPopulation& pop) {
    double sum = 0.0;
    for (const auto& u : pop.users()) {
      double best = 1e9;
      for (const auto& spot : field.hotspots()) {
        best = std::min(best, distance(u.position, spot.center));
      }
      sum += best;
    }
    return sum / static_cast<double>(pop.users().size());
  };
  EXPECT_LT(mean_nearest(attracted), mean_nearest(uniform) * 0.5);
}

}  // namespace
}  // namespace geogrid::mobility
