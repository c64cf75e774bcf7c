// Protocol-mode GeoGrid node.
//
// GeoGridNode is the middleware process the paper describes: it joins the
// overlay through the bootstrap service, owns one or more regions (primary
// or secondary seat), routes location queries by greedy geographic
// forwarding, disseminates them to overlapping neighbor regions, stores
// subscriptions and matches publications against them, exchanges heartbeats
// and load statistics, and runs the dual-peer fail-over and load-balance
// adaptation handshakes — all purely over net::Message exchanges through
// the simulated network.  A node knows only what messages told it: its own
// regions, snapshots of their neighbors, and TTL-search replies.
//
// Each protocol step is written once, and every handler that takes it calls
// the same member:
//   * split_region: halve a region and give one half away (basic join,
//     split-join, adaptation split);
//   * take_seat: install a seat from a region snapshot (join grant, region
//     handoff, orphan adoption, switch and merge handshakes);
//   * area_step: act on the region covering an area's center and fan the
//     request out one hop (queries, subscribes, unsubscribes);
//   * dispatch: one visit over the message variant, for direct deliveries
//     and for routed payloads that reached their covering region alike.
// tests/protocol_pin_test.cc pins the traffic and final state of one seeded
// scenario per grid mode, so a change to any of these steps shows there.
//
// The decision logic (join target selection, adaptation planning rules) is
// shared with engine mode, so a protocol-mode network converges to the same
// partitions the engine produces; integration tests pin the two together.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <tuple>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/geometry.h"
#include "common/ids.h"
#include "common/rng.h"
#include "core/options.h"
#include "mobility/location_store.h"
#include "net/messages.h"
#include "overlay/region.h"
#include "sim/event_loop.h"
#include "sim/network.h"

namespace geogrid::core {

/// Topic under which mobile-user movement fires subscription notifications:
/// a subscription whose filter is empty or equals this topic is matched when
/// a user's reported position enters its area.
inline constexpr std::string_view kPresenceTopic = "presence";

/// A stored subscription with its absolute expiry time.
struct StoredSubscription {
  net::Subscribe sub;
  sim::Time expires = 0.0;

  static auto fields(auto& m) { return std::tie(m.sub, m.expires); }
};

/// Local state of one region seat this node holds.
struct OwnedRegion {
  RegionId id{};
  Rect rect{};
  int split_depth = 0;
  net::OwnerRole role = net::OwnerRole::kPrimary;
  std::optional<net::NodeInfo> peer;  ///< the other seat's owner, if any
  double load = 0.0;                  ///< current workload mapped here

  /// Neighbor table: everything this node knows about adjacent regions.
  std::map<RegionId, net::RegionSnapshot> neighbors;

  // Replicated application state (synced primary -> secondary).
  std::vector<StoredSubscription> subscriptions;
  mobility::LocationStore users;  ///< mobile users inside this region
  std::uint64_t app_version = 0;

  bool is_primary() const noexcept {
    return role == net::OwnerRole::kPrimary;
  }
  bool full() const noexcept { return peer.has_value(); }

  /// The neighbor table as a list, in region-id order.
  std::vector<net::RegionSnapshot> neighbor_list() const {
    std::vector<net::RegionSnapshot> list;
    list.reserve(neighbors.size());
    for (const auto& [rid, snap] : neighbors) list.push_back(snap);
    return list;
  }
};

/// Counters exposed for tests and examples.
struct NodeCounters {
  std::uint64_t queries_submitted = 0;
  std::uint64_t queries_executed = 0;   ///< executed against an owned region
  std::uint64_t queries_disseminated = 0;
  std::uint64_t results_received = 0;
  std::uint64_t notifies_received = 0;
  std::uint64_t publishes_handled = 0;
  std::uint64_t routed_forwarded = 0;
  std::uint64_t takeovers = 0;          ///< fail-overs this node performed
  std::uint64_t adaptations_started = 0;
  std::uint64_t adaptations_completed = 0;
  // Mobile-user layer.
  std::uint64_t location_updates_submitted = 0;  ///< proxy role
  std::uint64_t location_updates_ingested = 0;   ///< owner role
  std::uint64_t location_acks_received = 0;
  std::uint64_t user_handoffs = 0;      ///< boundary crossings this owner saw
  std::uint64_t locates_served = 0;
  std::uint64_t locate_replies_received = 0;
  std::uint64_t presence_notifies_sent = 0;
  // Routed envelopes this node dropped instead of delivering or forwarding.
  std::uint64_t routes_dropped_hop_limit = 0;  ///< hop budget exhausted
  std::uint64_t routes_dropped_no_route = 0;   ///< no neighbor to forward to
};

class GeoGridNode : public sim::Process {
 public:
  struct Config {
    GridMode mode = GridMode::kDualPeer;
    Rect plane{0.0, 0.0, 64.0, 64.0};   ///< service area (founder's root)
    double peer_sync_interval = 1.0;    ///< dual peers sync at high rate
    double heartbeat_interval = 4.0;    ///< primaries of neighbor regions
    double stats_interval = 4.0;        ///< load gossip period
    double adaptation_interval = 8.0;   ///< trigger evaluation period
    double failure_timeout = 12.0;      ///< silence before a peer is dead
    double search_wait = 2.0;           ///< TTL-search reply collection time
    double join_retry = 3.0;            ///< retry period for rejected joins
    std::uint16_t max_route_hops = 512; ///< routed-envelope loop guard
    loadbalance::PlannerConfig planner{};
    bool enable_adaptation() const noexcept {
      return mode == GridMode::kDualPeerAdaptive;
    }
  };

  GeoGridNode(sim::Network& network, NodeId bootstrap_address,
              net::NodeInfo self, Config config, Rng rng);

  /// Attaches to the network and begins the join procedure.
  void start();

  /// Graceful departure: hand seats over and detach.
  void leave();

  /// Crash without goodbye (failure injection for tests/examples).
  void crash();

  // --- Application API -----------------------------------------------------

  /// One-shot location query over `area`; results arrive as QueryResult
  /// messages and are surfaced through `on_result`.
  std::uint64_t submit_query(const Rect& area, const std::string& filter);

  /// Standing subscription for `duration` seconds.
  std::uint64_t subscribe(const Rect& area, const std::string& filter,
                          double duration);

  /// Cancels a standing subscription created by subscribe() before its
  /// duration expires (routed and disseminated like the subscription).
  void unsubscribe(std::uint64_t sub_id, const Rect& area);

  /// Publishes a located datum (information-source role).
  void publish(const Point& location, const std::string& topic,
               const std::string& payload);

  /// Access-proxy role: forwards a mobile user's location report into the
  /// grid (routed to the region covering the new position).  `prev` is the
  /// user's previously reported position, when known — it drives handoff
  /// eviction and duplicate-notification suppression at the owner.
  void submit_location_update(UserId user, const Point& location,
                              std::uint64_t seq,
                              std::optional<Point> prev = std::nullopt);

  /// Point lookup for a user: routes a LocateRequest toward `hint` (the
  /// requester's last known position for the user); the covering owner
  /// answers from its location store via `on_locate`.
  std::uint64_t locate_user(UserId user, const Point& hint);

  /// Callback hooks (tests and examples).
  std::function<void(const net::QueryResult&)> on_result;
  std::function<void(const net::Notify&)> on_notify;
  std::function<void(const net::LocateReply&)> on_locate;
  std::function<void(const net::LocationUpdateAck&)> on_location_ack;

  // --- Introspection ---------------------------------------------------------

  bool joined() const noexcept { return joined_; }
  /// True once the node has left or crashed (it will never rejoin).
  bool departed() const noexcept { return leaving_; }
  const net::NodeInfo& info() const noexcept { return self_; }
  const std::map<RegionId, OwnedRegion>& owned() const noexcept {
    return owned_;
  }
  const NodeCounters& counters() const noexcept { return counters_; }

  /// Injects a load figure for an owned region (harnesses drive this from
  /// the hot-spot field; a deployment would measure executed queries).
  void set_region_load(RegionId region, double load);

  /// Own workload index: primary-held load over capacity.
  double workload_index() const;

  void on_message(NodeId from, const net::Message& msg) override;

 private:
  // Join flow.
  void begin_join();
  void handle_entry_reply(const net::BootstrapEntryReply& m);
  void found_grid();
  void handle_join_request(NodeId from, const net::JoinRequest& m);
  void handle_probe_reply(const net::JoinProbeReply& m);
  void handle_secondary_join(NodeId from, const net::SecondaryJoinRequest& m);
  void handle_split_join(NodeId from, const net::SplitJoinRequest& m);
  void handle_join_grant(const net::JoinGrant& m);
  void basic_split_for(const net::NodeInfo& joiner, RegionId region);

  /// The split step.  Halves `region` (this node keeps the half covering
  /// its own coordinate) and describes the other half under a fresh id with
  /// `taker` as its primary.  `place` (optional) may then reseat either
  /// half.  The given half is linked into the neighbor table, `hand_over`
  /// sends it with its neighbor list, and the old neighborhood hears of
  /// both halves.
  void split_region(
      OwnedRegion& region, net::NodeInfo taker,
      const std::function<void(net::RegionSnapshot& given)>& place,
      const std::function<void(const net::RegionSnapshot& given,
                               std::vector<net::RegionSnapshot> neighbors)>&
          hand_over);
  RegionId fresh_region_id();

  /// The seat-install step: seats this node in `role` in the region `snap`
  /// describes (replacing any seat it held there), with the other seat's
  /// owner from `snap` as peer and the `candidates` that border the region
  /// as neighbors.  Liveness stamps are the caller's.
  OwnedRegion& take_seat(const net::RegionSnapshot& snap, net::OwnerRole role,
                         std::span<const net::RegionSnapshot> candidates);
  /// Gives up a seat and its peer-liveness stamp.
  void drop_seat(RegionId region);

  // Routing and dispatch.
  void route_or_handle(net::Routed env);
  OwnedRegion* covering_region(const Point& p);
  /// Handles `msg`, delivered directly (`hops` 0) or as the payload of a
  /// routed envelope that reached its covering region after `hops` hops.
  void dispatch(NodeId from, const net::Message& msg, std::uint16_t hops);

  // Application handlers.
  /// The area step of a query, subscribe or unsubscribe.  `act` runs on the
  /// region covering the area's center, and one copy goes to each neighbor
  /// region of it that overlaps the area.  A node with no seat covering the
  /// center got a copy: `act` runs on its first primary region that
  /// `takes_copy` accepts.  Returns the number of copies sent.
  template <typename Request, typename TakesCopy, typename Act>
  std::size_t area_step(const Request& request, TakesCopy takes_copy,
                        Act act);
  void execute_query(const net::LocationQuery& q, OwnedRegion& region);
  void handle_location_query(const net::LocationQuery& q);
  void handle_subscribe(const net::Subscribe& s);
  void store_subscription(const net::Subscribe& s, OwnedRegion& region);
  void handle_unsubscribe(const net::Unsubscribe& u);
  void drop_subscription(std::uint64_t sub_id, OwnedRegion& region);
  void handle_publish(const net::Publish& p);

  // Mobile-user handlers.
  void handle_location_update(const net::LocationUpdate& m);
  void handle_user_handoff(const net::UserHandoff& m);
  void handle_locate_request(const net::LocateRequest& m, std::uint16_t hops);
  void notify_presence(OwnedRegion& region, const net::LocationUpdate& m);
  /// Drops lapsed subscriptions; runs on every seat (secondaries included)
  /// so a failed-over replica never fires from an expired subscription.
  void prune_expired_subscriptions(OwnedRegion& region);

  // Maintenance.
  void schedule_timers();
  void tick_peer_sync();
  void tick_heartbeat();
  void tick_stats();
  void tick_failure_check();
  void tick_adaptation();
  void handle_heartbeat(NodeId from, const net::Heartbeat& m);
  void handle_load_stats(NodeId from, const net::LoadStatsExchange& m);
  void handle_takeover(const net::TakeoverNotice& m);
  void handle_neighbor_update(const net::NeighborUpdate& m);
  void handle_neighbor_remove(const net::NeighborRemove& m);
  void handle_leave_notice(NodeId from, const net::LeaveNotice& m);
  void handle_region_handoff(const net::RegionHandoff& m);
  void handle_owner_probe(const net::OwnerProbe& m);
  void adopt_orphan(const net::RegionSnapshot& snap);

  // Adaptation handshakes.
  void handle_steal_request(NodeId from, const net::StealSecondaryRequest& m);
  void handle_steal_grant(const net::StealSecondaryGrant& m);
  void handle_switch_request(NodeId from, const net::SwitchRequest& m);
  void handle_switch_grant(NodeId from, const net::SwitchGrant& m);
  void handle_merge_request(NodeId from, const net::MergeRequest& m);
  void handle_merge_grant(NodeId from, const net::MergeGrant& m);
  void handle_ttl_search(NodeId from, const net::TtlSearchRequest& m);
  void handle_ttl_reply(const net::TtlSearchReply& m);
  void clear_adaptation_state();

  // Snapshot/notification helpers.
  net::RegionSnapshot snapshot_of(const OwnedRegion& region) const;
  void broadcast_neighbor_update(const OwnedRegion& region);
  void send_to_region_primary(const net::RegionSnapshot& target,
                              net::Message msg);
  void prune_neighbors(OwnedRegion& region);
  void sync_peer(OwnedRegion& region);

  sim::Network& network_;
  sim::EventLoop& loop_;
  NodeId bootstrap_;
  net::NodeInfo self_;
  Config config_;
  Rng rng_;

  bool started_ = false;
  bool joined_ = false;
  bool leaving_ = false;
  int join_attempts_ = 0;

  std::map<RegionId, OwnedRegion> owned_;
  NodeCounters counters_;
  std::uint64_t next_request_id_ = 0;

  /// Last time we heard from the peer of each owned region.
  std::unordered_map<RegionId, sim::Time> peer_last_heard_;

  /// Last time a neighbor region's primary was heard from.
  std::unordered_map<RegionId, sim::Time> neighbor_last_heard_;

  /// Regions under suspicion of being orphaned: time the OwnerProbe was
  /// routed toward them.  Adoption happens only if no reply refreshes the
  /// entry within a failure-timeout grace period.
  std::unordered_map<RegionId, sim::Time> suspect_since_;

  /// TTL searches already forwarded (origin id << 32 | search id).
  std::unordered_set<std::uint64_t> seen_searches_;

  /// Locally allocated region-id counter (globally unique: the node id is
  /// folded into the high bits).
  std::uint32_t next_local_region_ = 0;

  /// In-flight adaptation (one at a time per node).
  struct PendingAdaptation {
    bool active = false;
    bool searching = false;  ///< TTL search outstanding, decision pending
    loadbalance::Mechanism mechanism{};
    RegionId subject{};
    RegionId partner{};
    net::RegionSnapshot partner_snapshot{};
    sim::Time started = 0.0;
    std::uint32_t search_id = 0;
    std::vector<net::RegionSnapshot> search_candidates;
  };
  PendingAdaptation pending_;
  std::uint32_t next_search_id_ = 0;

  /// Initiates the handshake for a locally planned mechanism.
  void initiate_plan(const loadbalance::Plan& plan,
                     const net::RegionSnapshot& partner_snapshot);
  void execute_local_split(OwnedRegion& region);
  void finish_ttl_search();

  std::vector<sim::EventHandle> timers_;
  /// Keeps the self-rescheduling timer closures alive (they only hold weak
  /// references to themselves).
  std::vector<std::shared_ptr<std::function<void()>>> timer_fns_;
};

}  // namespace geogrid::core
