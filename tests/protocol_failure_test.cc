// Protocol-mode failure handling: dual-peer fail-over, caretaker adoption,
// graceful departure.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/cluster.h"

namespace geogrid::core {
namespace {

Cluster::Options options(GridMode mode, std::uint64_t seed) {
  Cluster::Options opt;
  opt.node.mode = mode;
  opt.seed = seed;
  return opt;
}

TEST(ProtocolFailure, SecondaryTakesOverWhenPrimaryCrashes) {
  Cluster cluster(options(GridMode::kDualPeer, 10));
  auto& a = cluster.spawn_at({10, 10}, 100.0);  // will be primary
  auto& b = cluster.spawn_at({50, 50}, 1.0);    // will be secondary
  ASSERT_TRUE(cluster.run_until_joined());
  cluster.run_for(10);
  ASSERT_TRUE(a.owned().begin()->second.is_primary());
  ASSERT_FALSE(b.owned().begin()->second.is_primary());

  a.crash();
  cluster.run_for(60);  // several failure-timeout windows

  ASSERT_EQ(b.owned().size(), 1u);
  EXPECT_TRUE(b.owned().begin()->second.is_primary());
  EXPECT_FALSE(b.owned().begin()->second.full());
  EXPECT_GE(b.counters().takeovers, 1u);
}

TEST(ProtocolFailure, PrimarySurvivesSecondaryCrash) {
  Cluster cluster(options(GridMode::kDualPeer, 11));
  auto& a = cluster.spawn_at({10, 10}, 100.0);
  auto& b = cluster.spawn_at({50, 50}, 1.0);
  ASSERT_TRUE(cluster.run_until_joined());
  cluster.run_for(10);

  b.crash();
  cluster.run_for(60);

  ASSERT_EQ(a.owned().size(), 1u);
  EXPECT_TRUE(a.owned().begin()->second.is_primary());
  EXPECT_FALSE(a.owned().begin()->second.full());  // peer declared dead
}

TEST(ProtocolFailure, FailoverPreservesReplicatedSubscriptions) {
  Cluster cluster(options(GridMode::kDualPeer, 12));
  auto& a = cluster.spawn_at({10, 10}, 100.0);
  cluster.spawn_at({50, 50}, 1.0);
  auto& c = cluster.spawn_at({30, 30}, 10.0);
  // Fourth node lands in the half-full region covering (10, 10), giving it
  // a replica before the crash.
  auto& d = cluster.spawn_at({12, 12}, 20.0);
  ASSERT_TRUE(cluster.run_until_joined());
  cluster.run_for(10);

  int notifies = 0;
  c.on_notify = [&](const net::Notify&) { ++notifies; };
  c.subscribe(Rect{8, 8, 4, 4}, "traffic", 10000.0);
  cluster.run_for(15);  // replication happens on peer-sync ticks

  // Kill whichever node is primary for the subscription area, after
  // verifying a replica exists.
  GeoGridNode* primary = cluster.primary_covering({10, 10});
  ASSERT_NE(primary, nullptr);
  bool replicated = false;
  for (const auto& [rid, region] : primary->owned()) {
    if (region.is_primary() && region.full()) replicated = true;
  }
  ASSERT_TRUE(replicated) << "subscription region never gained a replica";
  primary->crash();
  cluster.run_for(60);

  // The surviving replica must still match publications.
  GeoGridNode* publisher = (&a == primary) ? &d : &a;
  if (!publisher->joined() || publisher->owned().empty()) publisher = &c;
  publisher->publish({10, 10}, "traffic", "jam on I-85");
  cluster.run_for(10);
  EXPECT_GE(notifies, 1);
}

TEST(ProtocolFailure, CaretakerAdoptsOrphanRegion) {
  // Basic mode: no replicas, so a crashed owner's region must be adopted
  // by a neighbor (smallest-node-id caretaker election).
  Cluster cluster(options(GridMode::kBasic, 13));
  for (int i = 0; i < 20; ++i) cluster.spawn();
  ASSERT_TRUE(cluster.run_until_joined());
  cluster.run_for(30);

  auto& victim = *cluster.nodes()[7];
  const double victim_area = [&] {
    double a = 0.0;
    for (const auto& [rid, region] : victim.owned()) a += region.rect.area();
    return a;
  }();
  ASSERT_GT(victim_area, 0.0);
  victim.crash();
  cluster.run_for(120);  // allow detection + adoption + gossip settling

  // The plane must be fully covered again by the survivors.
  double covered = 0.0;
  for (const auto& node : cluster.nodes()) {
    if (node.get() == &victim) continue;
    for (const auto& [rid, region] : node->owned()) {
      if (region.is_primary()) covered += region.rect.area();
    }
  }
  EXPECT_NEAR(covered, 64.0 * 64.0, 1e-6);
}

// An OwnerProbe can land on the node holding the probed region's secondary
// seat.  That region is alive, so the answer must refresh the prober's
// entry, never retire it.
TEST(ProtocolFailure, OwnerProbeAnsweredBySecondarySeat) {
  Cluster cluster(options(GridMode::kDualPeer, 15));
  auto& a = cluster.spawn_at({10, 10}, 100.0);  // primary
  auto& b = cluster.spawn_at({50, 50}, 1.0);    // secondary
  ASSERT_TRUE(cluster.run_until_joined());
  cluster.run_for(10);
  ASSERT_EQ(b.owned().size(), 1u);
  const RegionId region = b.owned().begin()->first;
  ASSERT_FALSE(b.owned().begin()->second.is_primary());

  std::vector<RegionId> removed;
  std::vector<RegionId> refreshed;
  cluster.network().on_send = [&](NodeId, NodeId to, const net::Message& m) {
    if (to != a.info().id) return;
    if (const auto* rm = std::get_if<net::NeighborRemove>(&m)) {
      removed.push_back(rm->region);
    }
    if (const auto* up = std::get_if<net::NeighborUpdate>(&m)) {
      refreshed.push_back(up->snapshot.region);
    }
  };
  cluster.network().send(a.info().id, b.info().id,
                         net::OwnerProbe{region, a.info()});
  cluster.run_for(0.5);

  for (const RegionId r : removed) {
    for (const auto& node : cluster.nodes()) {
      EXPECT_FALSE(node->owned().contains(r))
          << "NeighborRemove names region " << r << ", which node "
          << node->info().id << " still holds";
    }
  }
  EXPECT_NE(std::find(refreshed.begin(), refreshed.end(), region),
            refreshed.end());
}

TEST(ProtocolFailure, GracefulLeaveHandsOverSeats) {
  Cluster cluster(options(GridMode::kDualPeer, 14));
  for (int i = 0; i < 30; ++i) cluster.spawn();
  ASSERT_TRUE(cluster.run_until_joined());
  cluster.run_for(20);

  auto& leaver = *cluster.nodes()[5];
  leaver.leave();
  cluster.run_for(60);

  EXPECT_TRUE(leaver.owned().empty());
  double covered = 0.0;
  for (const auto& node : cluster.nodes()) {
    for (const auto& [rid, region] : node->owned()) {
      if (region.is_primary()) covered += region.rect.area();
    }
  }
  EXPECT_NEAR(covered, 64.0 * 64.0, 1e-6);
}

TEST(ProtocolFailure, QueriesStillWorkAfterFailover) {
  Cluster cluster(options(GridMode::kDualPeer, 15));
  for (int i = 0; i < 40; ++i) cluster.spawn();
  ASSERT_TRUE(cluster.run_until_joined());
  cluster.run_for(20);

  // Crash three nodes that hold primary seats.
  int crashed = 0;
  for (auto& node : cluster.nodes()) {
    if (crashed == 3) break;
    for (const auto& [rid, region] : node->owned()) {
      if (region.is_primary() && region.full()) {
        node->crash();
        ++crashed;
        break;
      }
    }
  }
  ASSERT_EQ(crashed, 3);
  cluster.run_for(120);

  // A surviving node can still query anywhere.
  GeoGridNode* issuer = nullptr;
  for (auto& node : cluster.nodes()) {
    if (node->joined() && !node->owned().empty()) {
      issuer = node.get();
      break;
    }
  }
  ASSERT_NE(issuer, nullptr);
  int results = 0;
  issuer->on_result = [&](const net::QueryResult&) { ++results; };
  issuer->submit_query(Rect{31, 31, 2, 2}, "traffic");
  issuer->submit_query(Rect{5, 60, 2, 2}, "traffic");
  cluster.run_for(15);
  EXPECT_GE(results, 2);
}

// A routed message whose target no region covers (a point off the plane)
// is dropped; the node that drops it counts why.
TEST(ProtocolFailure, LoneFounderCountsNoRouteDrop) {
  Cluster cluster(options(GridMode::kBasic, 20));
  auto& founder = cluster.spawn_at({10, 10}, 10.0);
  ASSERT_TRUE(cluster.run_until_joined());
  founder.publish({-5, 32}, "parking", "off the plane");
  cluster.run_for(5);
  EXPECT_EQ(founder.counters().routes_dropped_no_route, 1u);
  EXPECT_EQ(founder.counters().routes_dropped_hop_limit, 0u);
}

TEST(ProtocolFailure, OffPlaneTargetBouncesToHopLimit) {
  Cluster cluster(options(GridMode::kBasic, 21));
  auto& a = cluster.spawn_at({10, 10}, 10.0);
  auto& b = cluster.spawn_at({50, 50}, 10.0);
  ASSERT_TRUE(cluster.run_until_joined());
  cluster.run_for(10);
  a.publish({-5, 32}, "parking", "off the plane");
  cluster.run_for(20);
  // Each node's only neighbor is the other, so the envelope bounces between
  // them until its hop budget runs out, and one of them drops it.
  const auto& ca = a.counters();
  const auto& cb = b.counters();
  EXPECT_EQ(ca.routed_forwarded + cb.routed_forwarded,
            GeoGridNode::Config{}.max_route_hops);
  EXPECT_EQ(ca.routes_dropped_hop_limit + cb.routes_dropped_hop_limit, 1u);
  EXPECT_EQ(ca.routes_dropped_no_route + cb.routes_dropped_no_route, 0u);
}

}  // namespace
}  // namespace geogrid::core
