// Pinned protocol trace.
//
// One seeded Cluster scenario per grid mode, pinned to the exact traffic it
// puts on the wire and the exact state every node ends in.  A refactor of
// GeoGridNode that keeps the protocol must keep these numbers: every
// message sent in the same order, from and to the same nodes, with the same
// bytes (a digest over every send), and every node's regions, neighbor
// tables, subscriptions, location stores and counters unchanged.
//
// The scenario exercises every protocol step the node implements:
// staggered joins (splits and seat installs), a migrating hot-spot load
// (stats gossip and, with adaptation, every handshake), a mobile-user fleet
// (ingest, handoff, sync), queries, subscriptions and unsubscriptions over
// areas that span several regions (dissemination), publishes, locates, one
// crash (fail-over or orphan adoption), one graceful leave and late joins.
//
// On a mismatch the test prints the observed pin in the form of the table
// below, ready to paste back in once a traffic change is intended.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <sstream>
#include <utility>
#include <vector>

#include "core/cluster.h"
#include "core/user_fleet.h"
#include "net/codec.h"
#include "wire_digest.h"
#include "workload/hotspot.h"

namespace geogrid::core {
namespace {

struct ProtocolPin {
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_dropped = 0;
  std::uint64_t bytes_sent = 0;
  /// Every message type sent at least once: (wire tag, count).
  std::vector<std::pair<int, std::uint64_t>> per_type;
  testutil::WireDigest sends;  ///< sender, receiver and bytes of each send
  testutil::WireDigest state;  ///< every node's final state, in node order

  friend bool operator==(const ProtocolPin&, const ProtocolPin&) = default;

  friend std::ostream& operator<<(std::ostream& os, const ProtocolPin& p) {
    os << "{" << p.messages_sent << "ull, " << p.messages_dropped << "ull, "
       << p.bytes_sent << "ull,\n {";
    for (std::size_t i = 0; i < p.per_type.size(); ++i) {
      if (i > 0) os << (i % 6 == 0 ? ",\n  " : ", ");
      os << '{' << p.per_type[i].first << ", " << p.per_type[i].second << '}';
    }
    return os << "},\n " << p.sends << ", " << p.state << "}";
  }
};

/// Appends one node's final state: the counters it had before the routing
/// drop counters existed, then each seat with its neighbor table,
/// subscriptions and location store.
void put_node_state(net::Writer& w, const GeoGridNode& node) {
  const NodeCounters& c = node.counters();
  net::put(w, node.info());
  net::put(w, node.joined());
  net::put(w, node.departed());
  for (const std::uint64_t v :
       {c.queries_submitted, c.queries_executed, c.queries_disseminated,
        c.results_received, c.notifies_received, c.publishes_handled,
        c.routed_forwarded, c.takeovers, c.adaptations_started,
        c.adaptations_completed, c.location_updates_submitted,
        c.location_updates_ingested, c.location_acks_received,
        c.user_handoffs, c.locates_served, c.locate_replies_received,
        c.presence_notifies_sent}) {
    net::put(w, v);
  }
  w.varint(node.owned().size());
  for (const auto& [rid, region] : node.owned()) {
    net::put(w, region.id);
    net::put(w, region.rect);
    net::put(w, region.split_depth);
    net::put(w, region.role);
    net::put(w, region.peer);
    net::put(w, region.load);
    net::put(w, region.app_version);
    w.varint(region.neighbors.size());
    for (const auto& [nid, snap] : region.neighbors) net::put(w, snap);
    net::put(w, region.subscriptions);
    region.users.encode(w);
  }
}

ProtocolPin observe(Cluster& cluster, const testutil::WireHasher& sends) {
  ProtocolPin pin;
  const sim::NetworkStats& stats = cluster.network().stats();
  pin.messages_sent = stats.messages_sent;
  pin.messages_dropped = stats.messages_dropped;
  pin.bytes_sent = stats.bytes_sent;
  for (std::size_t t = 0; t < stats.per_type.size(); ++t) {
    if (stats.per_type[t] != 0) {
      pin.per_type.emplace_back(static_cast<int>(t), stats.per_type[t]);
    }
  }
  pin.sends = sends.digest();
  net::Writer w;
  for (const auto& node : cluster.nodes()) put_node_state(w, *node);
  pin.state = testutil::wire_digest(w.bytes());
  return pin;
}

/// Any joined node that has not left or crashed, drawn from `rng`.
GeoGridNode& live_node(Cluster& cluster, Rng& rng) {
  auto& nodes = cluster.nodes();
  const std::size_t start = rng.uniform_index(nodes.size());
  for (std::size_t probe = 0; probe < nodes.size(); ++probe) {
    GeoGridNode& node = *nodes[(start + probe) % nodes.size()];
    if (node.joined() && !node.departed()) return node;
  }
  return *nodes[start];
}

/// An area of 2-14 miles a side inside the 64x64 plane.
Rect random_area(Rng& rng) {
  const double w = rng.uniform(2.0, 14.0);
  const double h = rng.uniform(2.0, 14.0);
  return Rect{rng.uniform(0.0, 64.0 - w), rng.uniform(0.0, 64.0 - h), w, h};
}

ProtocolPin run_scenario(GridMode mode, std::uint64_t seed) {
  Cluster::Options opt;
  opt.node.mode = mode;
  opt.seed = seed;
  testutil::WireHasher sends;  // outlives the network that feeds it
  Cluster cluster(opt);
  cluster.network().on_send = [&sends](NodeId from, NodeId to,
                                       const net::Message& msg) {
    net::Writer w;
    net::put(w, from);
    net::put(w, to);
    sends.add(w.bytes());
    sends.add(net::encode_message(msg));
  };

  for (int i = 0; i < 40; ++i) cluster.spawn();
  EXPECT_TRUE(cluster.run_until_joined());
  cluster.run_for(10.0);

  Rng field_rng(seed * 7 + 1);
  workload::HotSpotField::Options fopt;
  fopt.hotspot_count = 5;
  workload::HotSpotField field(fopt, field_rng);

  mobility::UserPopulation::Options popt;
  popt.model = mobility::MotionModel::kHotspotAttracted;
  UserFleet fleet(cluster, mobility::UserPopulation(300, popt, &field,
                                                    Rng(seed * 7 + 2)));

  Rng rng(seed * 7 + 3);
  struct Standing {
    GeoGridNode* owner;
    std::uint64_t id;
    Rect area;
  };
  std::deque<Standing> standing;
  const char* const topics[] = {"parking", "traffic", "presence"};

  for (int second = 0; second < 120; ++second) {
    cluster.apply_field(field);
    if (second % 20 == 19) field.migrate(field_rng, 2);
    if (second % 2 == 0) fleet.tick(2.0);
    if (second % 3 == 0) {
      live_node(cluster, rng).submit_query(random_area(rng), "traffic");
    }
    if (second % 4 == 1) {
      GeoGridNode& owner = live_node(cluster, rng);
      const Rect area = random_area(rng);
      const char* filter = topics[rng.uniform_index(3)];
      standing.push_back(
          {&owner, owner.subscribe(area, filter, rng.uniform(20.0, 200.0)),
           area});
    }
    if (second % 9 == 8 && !standing.empty()) {
      const Standing s = standing.front();
      standing.pop_front();
      if (!s.owner->departed()) s.owner->unsubscribe(s.id, s.area);
    }
    if (second % 2 == 1) {
      const Point p{rng.uniform(0.0, 64.0), rng.uniform(0.0, 64.0)};
      live_node(cluster, rng).publish(p, topics[rng.uniform_index(2)],
                                      "datum");
    }
    if (second % 5 == 2) {
      const std::size_t user =
          rng.uniform_index(fleet.population().users().size());
      if (const auto hint = fleet.last_reported(user)) {
        live_node(cluster, rng).locate_user(
            fleet.population().users()[user].id, *hint);
      }
    }
    if (second == 30) {
      GeoGridNode& victim = live_node(cluster, rng);
      victim.crash();
      cluster.bootstrap().unregister(victim.info().id);
    }
    if (second == 50) {
      for (int k = 0; k < 3; ++k) cluster.spawn();
    }
    if (second == 70) live_node(cluster, rng).leave();
    cluster.run_for(1.0);
  }
  // Quiet period: fail-over, orphan adoption and gossip settle.
  for (int second = 0; second < 120; ++second) {
    cluster.apply_field(field);
    cluster.run_for(1.0);
  }

  for (const std::string& violation : cluster.check_consistency()) {
    ADD_FAILURE() << "consistency violation: " << violation;
  }
  return observe(cluster, sends);
}

void expect_pin(GridMode mode, std::uint64_t seed, const ProtocolPin& want) {
  const ProtocolPin got = run_scenario(mode, seed);
  EXPECT_EQ(got, want) << "observed pin:\n" << got;
}

TEST(ProtocolPin, Basic) {
  expect_pin(
      GridMode::kBasic, 11,
      {97538ull, 226ull, 9770199ull,
       {{1, 43}, {2, 43}, {3, 43}, {14, 42}, {20, 411}, {31, 40},
        {32, 1}, {40, 10649}, {50, 10522}, {70, 57526}, {80, 68}, {81, 107},
        {82, 50}, {83, 79}, {85, 4}, {86, 24}, {91, 17862}, {94, 24}},
       {7820069, 0x73eef9b74ed1e3a1ull},
       {35774, 0x25511e4b8680bbbcull}});
}

TEST(ProtocolPin, DualPeer) {
  expect_pin(
      GridMode::kDualPeer, 1,
      {95225ull, 1970ull, 76731353ull,
       {{1, 43}, {2, 74}, {3, 74}, {11, 47}, {12, 23}, {13, 23},
        {14, 42}, {15, 7}, {20, 811}, {30, 1}, {31, 72}, {32, 22},
        {40, 15903}, {42, 16414}, {50, 6610}, {70, 38268}, {80, 31}, {81, 67},
        {82, 21}, {83, 49}, {86, 5}, {90, 343}, {91, 16253}, {94, 22}},
       {74854407, 0x74d57860421fe1a7ull},
       {64588, 0xa2a5d4c96846342aull}});
}

TEST(ProtocolPin, DualPeerAdaptive) {
  expect_pin(
      GridMode::kDualPeerAdaptive, 3,
      {127082ull, 334ull, 28711192ull,
       {{1, 43}, {2, 114}, {3, 114}, {11, 58}, {12, 27}, {13, 28},
        {14, 42}, {15, 21}, {20, 1700}, {21, 20}, {30, 1}, {31, 865},
        {32, 74}, {40, 14970}, {41, 1}, {42, 16199}, {50, 7311}, {51, 3},
        {52, 3}, {54, 62}, {55, 41}, {56, 19}, {57, 3}, {58, 3},
        {61, 24328}, {62, 292}, {70, 42316}, {80, 48}, {81, 87}, {82, 27},
        {83, 56}, {85, 6}, {86, 15}, {90, 417}, {91, 17744}, {94, 24}},
       {26178694, 0xef836cdcfbb866d2ull},
       {45469, 0x78f52a1edeea3cb7ull}});
}

}  // namespace
}  // namespace geogrid::core
