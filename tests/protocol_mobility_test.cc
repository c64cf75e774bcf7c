// Protocol-mode mobile-user layer: location updates over the wire, proxy
// handoff on region-boundary crossings, locate requests, replication of the
// location store to the secondary owner, and presence notifications driven
// by the subscription workload generator.
#include <gtest/gtest.h>

#include "core/cluster.h"
#include "core/user_fleet.h"
#include "workload/query_gen.h"

namespace geogrid::core {
namespace {

class ProtocolMobilityTest : public ::testing::Test {
 protected:
  ProtocolMobilityTest() : cluster_(make_options()) {
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

  /// Every stored copy of `user` in the seats of the region that owns
  /// `p`, across all nodes.
  std::size_t copies_at(UserId user, const Point& p) {
    std::size_t copies = 0;
    for (const auto& node : cluster_.nodes()) {
      if (node->departed()) continue;
      for (const auto& [rid, region] : node->owned()) {
        if (!region.rect.owns(p, make_options().node.plane)) continue;
        if (region.users.locate(user).has_value()) ++copies;
      }
    }
    return copies;
  }

  Cluster cluster_;
};

TEST_F(ProtocolMobilityTest, UpdateIsIngestedAndAcked) {
  auto& proxy = *cluster_.nodes().front();
  std::vector<net::LocationUpdateAck> acks;
  proxy.on_location_ack = [&](const net::LocationUpdateAck& a) {
    acks.push_back(a);
  };
  proxy.submit_location_update(UserId{7}, Point{25.0, 25.0}, 1);
  cluster_.run_for(10);
  ASSERT_EQ(acks.size(), 1u);
  EXPECT_EQ(acks[0].user, UserId{7});
  EXPECT_EQ(acks[0].seq, 1u);
  EXPECT_EQ(proxy.counters().location_acks_received, 1u);

  GeoGridNode* owner = cluster_.primary_covering({25.0, 25.0});
  ASSERT_NE(owner, nullptr);
  EXPECT_GT(owner->counters().location_updates_ingested, 0u);
}

TEST_F(ProtocolMobilityTest, BoundaryCrossingIsLocatableAndEvictsOldOwner) {
  const UserId user{99};
  const Point before{10.0, 10.0};
  const Point after{50.0, 50.0};
  auto& proxy = *cluster_.nodes().front();
  auto& seeker = *cluster_.nodes()[7];

  std::vector<net::LocateReply> replies;
  seeker.on_locate = [&](const net::LocateReply& r) { replies.push_back(r); };

  proxy.submit_location_update(user, before, 1);
  cluster_.run_for(10);
  const std::uint64_t rid1 = seeker.locate_user(user, before);
  cluster_.run_for(10);
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].request_id, rid1);
  ASSERT_TRUE(replies[0].found);
  EXPECT_EQ(replies[0].location, before);

  // The user drives across the plane: the update routes to the new owning
  // region and a UserHandoff evicts the record from the old one.
  proxy.submit_location_update(user, after, 2, before);
  cluster_.run_for(10);
  EXPECT_EQ(copies_at(user, before), 0u) << "old owner kept a stale record";
  ASSERT_GE(copies_at(user, after), 1u);

  replies.clear();
  auto& other_seeker = *cluster_.nodes()[3];
  other_seeker.on_locate = [&](const net::LocateReply& r) {
    replies.push_back(r);
  };
  other_seeker.locate_user(user, after);
  cluster_.run_for(10);
  ASSERT_EQ(replies.size(), 1u);
  ASSERT_TRUE(replies[0].found);
  EXPECT_EQ(replies[0].location, after);
  EXPECT_EQ(replies[0].seq, 2u);

  // Crash the primary owner: the secondary's replicated store must keep the
  // user locatable.
  GeoGridNode* owner = cluster_.primary_covering(after);
  ASSERT_NE(owner, nullptr);
  const OwnedRegion* owning_region = nullptr;
  for (const auto& [rid, region] : owner->owned()) {
    if (region.is_primary() &&
        region.rect.owns(after, make_options().node.plane)) {
      owning_region = &region;
    }
  }
  ASSERT_NE(owning_region, nullptr);
  if (!owning_region->full()) {
    GTEST_SKIP() << "covering region is half-full in this topology";
  }
  owner->crash();
  cluster_.run_for(60);  // fail-over windows

  replies.clear();
  GeoGridNode* survivor = nullptr;
  for (auto& node : cluster_.nodes()) {
    if (!node->departed() && node->joined() && node.get() != owner) {
      survivor = node.get();
      break;
    }
  }
  ASSERT_NE(survivor, nullptr);
  survivor->on_locate = [&](const net::LocateReply& r) {
    replies.push_back(r);
  };
  survivor->locate_user(user, after);
  cluster_.run_for(10);
  ASSERT_EQ(replies.size(), 1u);
  ASSERT_TRUE(replies[0].found) << "fail-over lost the user record";
  EXPECT_EQ(replies[0].location, after);
  EXPECT_EQ(replies[0].seq, 2u);
}

TEST_F(ProtocolMobilityTest, GeneratedPresenceSubscriptionNotifiesOnEntry) {
  // Satellite path: workload::QueryGenerator::next_subscription -> Subscribe
  // -> user movement -> Notify, with duplicate suppression while the user
  // wanders inside the subscribed area.
  Rng field_rng(17);
  workload::HotSpotField field({}, field_rng);
  workload::QueryGenerator gen(
      field, workload::QueryGenerator::Options::presence_tracking(), Rng(23));

  auto& subscriber = *cluster_.nodes()[1];
  const net::Subscribe sub = gen.next_subscription(subscriber.info(), 600.0);
  ASSERT_EQ(sub.filter, "presence");

  std::vector<net::Notify> notifies;
  subscriber.on_notify = [&](const net::Notify& n) { notifies.push_back(n); };
  const std::uint64_t sid =
      subscriber.subscribe(sub.area, sub.filter, sub.duration);
  cluster_.run_for(5);

  const Point inside = sub.area.center();
  const Point wander{inside.x + sub.area.width / 8.0,
                     inside.y + sub.area.height / 8.0};
  const Point outside{sub.area.x > 32.0 ? 1.0 : 63.0,
                      sub.area.y > 32.0 ? 1.0 : 63.0};
  const UserId user{5};
  auto& proxy = *cluster_.nodes().front();

  proxy.submit_location_update(user, outside, 1);
  cluster_.run_for(5);
  EXPECT_EQ(notifies.size(), 0u);

  proxy.submit_location_update(user, inside, 2, outside);  // enters the area
  cluster_.run_for(5);
  ASSERT_EQ(notifies.size(), 1u);
  EXPECT_EQ(notifies[0].sub_id, sid);
  EXPECT_EQ(notifies[0].topic, "presence");

  proxy.submit_location_update(user, wander, 3, inside);  // stays inside
  cluster_.run_for(5);
  EXPECT_EQ(notifies.size(), 1u) << "wandering inside the area re-notified";

  proxy.submit_location_update(user, outside, 4, wander);  // leaves
  cluster_.run_for(5);
  EXPECT_EQ(notifies.size(), 1u);

  proxy.submit_location_update(user, inside, 5, outside);  // re-enters
  cluster_.run_for(5);
  EXPECT_EQ(notifies.size(), 2u) << "re-entry should notify again";
}

TEST_F(ProtocolMobilityTest, FleetKeepsUsersLocatable) {
  mobility::UserPopulation::Options opt;
  opt.max_pause = 5.0;
  UserFleet fleet(cluster_,
                  mobility::UserPopulation(20, opt, nullptr, Rng(31)));
  for (int round = 0; round < 10; ++round) {
    fleet.tick(2.0);
    cluster_.run_for(2.0);
  }
  cluster_.run_for(10.0);  // drain in-flight updates

  std::uint64_t acks = 0;
  for (const auto& node : cluster_.nodes()) {
    acks += node->counters().location_acks_received;
  }
  EXPECT_GT(acks, 0u);

  auto& seeker = *cluster_.nodes()[9];
  std::vector<net::LocateReply> replies;
  seeker.on_locate = [&](const net::LocateReply& r) { replies.push_back(r); };
  for (std::size_t i = 0; i < fleet.population().users().size(); ++i) {
    const auto reported = fleet.last_reported(i);
    ASSERT_TRUE(reported.has_value());
    seeker.locate_user(fleet.population().users()[i].id, *reported);
  }
  cluster_.run_for(15.0);
  ASSERT_EQ(replies.size(), fleet.population().users().size());
  for (const auto& r : replies) {
    EXPECT_TRUE(r.found) << "user " << r.user.value << " lost";
  }
}

// --- Scripted four-node topology: replication and expiry on fail-over -----

Cluster::Options scripted_options(std::uint64_t seed) {
  Cluster::Options opt;
  opt.node.mode = GridMode::kDualPeer;
  opt.seed = seed;
  return opt;
}

TEST(ProtocolMobilityFailover, ReplicatedStoreServesAfterPrimaryCrash) {
  Cluster cluster(scripted_options(12));
  auto& a = cluster.spawn_at({10, 10}, 100.0);
  cluster.spawn_at({50, 50}, 1.0);
  auto& c = cluster.spawn_at({30, 30}, 10.0);
  auto& d = cluster.spawn_at({12, 12}, 20.0);
  ASSERT_TRUE(cluster.run_until_joined());
  cluster.run_for(10);

  const UserId user{1};
  c.submit_location_update(user, Point{10.0, 10.0}, 1);
  cluster.run_for(15);  // replication happens on peer-sync ticks

  GeoGridNode* primary = cluster.primary_covering({10.0, 10.0});
  ASSERT_NE(primary, nullptr);
  bool replicated = false;
  for (const auto& [rid, region] : primary->owned()) {
    if (region.is_primary() && region.full() &&
        region.users.locate(user).has_value()) {
      replicated = true;
    }
  }
  ASSERT_TRUE(replicated) << "user region never gained a replica";
  primary->crash();
  cluster.run_for(60);

  GeoGridNode* seeker = (&a == primary) ? &d : &a;
  if (!seeker->joined() || seeker->departed()) seeker = &c;
  std::vector<net::LocateReply> replies;
  seeker->on_locate = [&](const net::LocateReply& r) { replies.push_back(r); };
  seeker->locate_user(user, Point{10.0, 10.0});
  cluster.run_for(10);
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_TRUE(replies[0].found) << "fail-over lost the replicated user";
}

TEST(ProtocolMobilityFailover, FailedOverSecondaryDropsExpiredSubscriptions) {
  Cluster cluster(scripted_options(12));
  auto& a = cluster.spawn_at({10, 10}, 100.0);
  cluster.spawn_at({50, 50}, 1.0);
  auto& c = cluster.spawn_at({30, 30}, 10.0);
  auto& d = cluster.spawn_at({12, 12}, 20.0);
  ASSERT_TRUE(cluster.run_until_joined());
  cluster.run_for(10);

  int notifies = 0;
  c.on_notify = [&](const net::Notify&) { ++notifies; };
  c.subscribe(Rect{8, 8, 4, 4}, std::string(kPresenceTopic), 5.0);
  cluster.run_for(2);  // replicated within a couple of sync ticks

  // After expiry, the cleanup must run on every seat — secondaries
  // included — so no replica still holds the lapsed subscription.
  cluster.run_for(20);
  for (const auto& node : cluster.nodes()) {
    for (const auto& [rid, region] : node->owned()) {
      EXPECT_TRUE(region.subscriptions.empty())
          << "node " << node->info().id << " region " << rid
          << " kept an expired subscription (role "
          << (region.is_primary() ? "primary" : "secondary") << ")";
    }
  }

  GeoGridNode* primary = cluster.primary_covering({10.0, 10.0});
  ASSERT_NE(primary, nullptr);
  primary->crash();
  cluster.run_for(60);

  // A user entering the subscribed rectangle must not fire the lapsed
  // subscription on the failed-over owner.
  GeoGridNode* proxy = (&a == primary) ? &d : &a;
  if (!proxy->joined() || proxy->departed()) proxy = &c;
  proxy->submit_location_update(UserId{2}, Point{10.0, 10.0}, 1);
  cluster.run_for(10);
  EXPECT_EQ(notifies, 0);
}

}  // namespace
}  // namespace geogrid::core
