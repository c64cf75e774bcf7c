// Protocol-mode application layer: queries, dissemination, pub-sub.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/cluster.h"

namespace geogrid::core {
namespace {

class ProtocolQueryTest : public ::testing::Test {
 protected:
  ProtocolQueryTest() : cluster_(make_options()) {
    for (int i = 0; i < 50; ++i) cluster_.spawn();
    EXPECT_TRUE(cluster_.run_until_joined());
    cluster_.run_for(20);  // let neighbor gossip settle
  }

  static Cluster::Options make_options() {
    Cluster::Options opt;
    opt.node.mode = GridMode::kDualPeer;
    opt.seed = 42;
    return opt;
  }

  Cluster cluster_;
};

TEST_F(ProtocolQueryTest, QueryReachesCoveringRegionAndReturnsResult) {
  auto& issuer = *cluster_.nodes().front();
  std::vector<net::QueryResult> results;
  issuer.on_result = [&](const net::QueryResult& r) { results.push_back(r); };

  const std::uint64_t qid = issuer.submit_query(Rect{30, 30, 2, 2}, "gas");
  cluster_.run_for(10);
  ASSERT_FALSE(results.empty());
  for (const auto& r : results) EXPECT_EQ(r.query_id, qid);

  // The executor is the node owning the region covering the query center.
  GeoGridNode* executor = cluster_.primary_covering({31, 31});
  ASSERT_NE(executor, nullptr);
  EXPECT_GT(executor->counters().queries_executed, 0u);
}

TEST_F(ProtocolQueryTest, WideQueryIsDisseminatedToOverlappingRegions) {
  auto& issuer = *cluster_.nodes().front();
  int results = 0;
  issuer.on_result = [&](const net::QueryResult&) { ++results; };
  // A 20x20-mile area overlaps several regions of a 50-node grid.
  issuer.submit_query(Rect{20, 20, 20, 20}, "traffic");
  cluster_.run_for(10);
  EXPECT_GE(results, 2);  // executor plus at least one disseminated copy
}

TEST_F(ProtocolQueryTest, SubscriptionDeliversMatchingPublications) {
  auto& subscriber = *cluster_.nodes()[1];
  std::vector<net::Notify> notifies;
  subscriber.on_notify = [&](const net::Notify& n) { notifies.push_back(n); };

  const std::uint64_t sid =
      subscriber.subscribe(Rect{40, 40, 6, 6}, "parking", 500.0);
  cluster_.run_for(5);
  cluster_.nodes()[2]->publish({43, 43}, "parking", "lot B: 12 spots");
  cluster_.run_for(10);
  ASSERT_EQ(notifies.size(), 1u);
  EXPECT_EQ(notifies[0].sub_id, sid);
  EXPECT_EQ(notifies[0].payload, "lot B: 12 spots");
}

TEST_F(ProtocolQueryTest, TopicFilterSuppressesMismatches) {
  auto& subscriber = *cluster_.nodes()[1];
  int notifies = 0;
  subscriber.on_notify = [&](const net::Notify&) { ++notifies; };
  subscriber.subscribe(Rect{40, 40, 6, 6}, "parking", 500.0);
  cluster_.run_for(5);
  cluster_.nodes()[2]->publish({43, 43}, "traffic", "accident");  // topic
  cluster_.nodes()[2]->publish({20, 20}, "parking", "far away");  // area
  cluster_.run_for(10);
  EXPECT_EQ(notifies, 0);
}

TEST_F(ProtocolQueryTest, SubscriptionsExpire) {
  auto& subscriber = *cluster_.nodes()[1];
  int notifies = 0;
  subscriber.on_notify = [&](const net::Notify&) { ++notifies; };
  subscriber.subscribe(Rect{40, 40, 6, 6}, "parking", 5.0);  // 5 seconds
  cluster_.run_for(30);  // far past expiry
  cluster_.nodes()[2]->publish({43, 43}, "parking", "too late");
  cluster_.run_for(10);
  EXPECT_EQ(notifies, 0);
}

TEST_F(ProtocolQueryTest, SubscriptionsReplicateToSecondary) {
  auto& subscriber = *cluster_.nodes()[1];
  subscriber.subscribe(Rect{40, 40, 6, 6}, "parking", 500.0);
  cluster_.run_for(15);  // covers several peer-sync intervals

  // Find the secondary of the covering region and check its replica.
  GeoGridNode* primary = cluster_.primary_covering({43, 43});
  ASSERT_NE(primary, nullptr);
  const OwnedRegion* primary_region = nullptr;
  for (const auto& [rid, region] : primary->owned()) {
    if (region.is_primary() &&
        region.rect.owns({43, 43}, make_options().node.plane)) {
      primary_region = &region;
    }
  }
  ASSERT_NE(primary_region, nullptr);
  EXPECT_FALSE(primary_region->subscriptions.empty());
  if (!primary_region->peer) {
    GTEST_SKIP() << "covering region is half-full in this topology";
  }
  const NodeId peer_id = primary_region->peer->id;
  for (const auto& node : cluster_.nodes()) {
    if (node->info().id != peer_id) continue;
    const auto it = node->owned().find(primary_region->id);
    ASSERT_NE(it, node->owned().end());
    EXPECT_EQ(it->second.subscriptions.size(),
              primary_region->subscriptions.size());
  }
}

TEST_F(ProtocolQueryTest, UnsubscribeClearsEveryStoredCopy) {
  const auto holds = [](const OwnedRegion& region, std::uint64_t sid) {
    return std::any_of(
        region.subscriptions.begin(), region.subscriptions.end(),
        [sid](const StoredSubscription& s) { return s.sub.sub_id == sid; });
  };
  auto& subscriber = *cluster_.nodes()[1];
  auto& publisher = *cluster_.nodes()[2];
  std::size_t notifies = 0;
  subscriber.on_notify = [&](const net::Notify&) { ++notifies; };

  // A 20x20-mile area spans several regions of a 50-node grid.
  const Rect area{20, 20, 20, 20};
  const std::uint64_t sid = subscriber.subscribe(area, "parking", 500.0);
  cluster_.run_for(5);

  // One probe point per primary region that stored a copy: inside both the
  // region and the area, so the publish routes to that region and matches.
  std::vector<Point> probes;
  for (const auto& node : cluster_.nodes()) {
    for (const auto& [rid, region] : node->owned()) {
      if (region.is_primary() && holds(region, sid)) {
        probes.push_back(region.rect.intersection(area)->center());
      }
    }
  }
  ASSERT_GE(probes.size(), 2u) << "the area must be disseminated";
  for (const Point& p : probes) publisher.publish(p, "parking", "before");
  cluster_.run_for(5);
  ASSERT_EQ(notifies, probes.size());

  subscriber.unsubscribe(sid, area);
  cluster_.run_for(5);  // past a peer-sync tick: replicas follow
  for (const auto& node : cluster_.nodes()) {
    for (const auto& [rid, region] : node->owned()) {
      EXPECT_FALSE(holds(region, sid))
          << "node " << node->info().id << " still holds the subscription in "
          << (region.is_primary() ? "primary" : "secondary") << " seat "
          << rid;
    }
  }
  notifies = 0;
  for (const Point& p : probes) publisher.publish(p, "parking", "after");
  cluster_.run_for(5);
  EXPECT_EQ(notifies, 0u);
}

TEST_F(ProtocolQueryTest, PublishWithNoSubscribersIsSilent) {
  int notifies = 0;
  for (auto& node : cluster_.nodes()) {
    node->on_notify = [&](const net::Notify&) { ++notifies; };
  }
  cluster_.nodes()[3]->publish({10, 10}, "gas", "3.50/gal");
  cluster_.run_for(10);
  EXPECT_EQ(notifies, 0);
}

}  // namespace
}  // namespace geogrid::core
