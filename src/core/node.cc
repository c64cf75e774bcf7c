#include "core/node.h"

#include <algorithm>
#include <cassert>

#include "common/logging.h"
#include "dualpeer/join_policy.h"
#include "overlay/router.h"

namespace geogrid::core {

using net::Message;
using net::NodeInfo;
using net::OwnerRole;
using net::RegionSnapshot;

GeoGridNode::GeoGridNode(sim::Network& network, NodeId bootstrap_address,
                         NodeInfo self, Config config, Rng rng)
    : network_(network), loop_(network.loop()), bootstrap_(bootstrap_address),
      self_(self), config_(config), rng_(rng) {}

void GeoGridNode::start() {
  assert(!started_);
  started_ = true;
  network_.attach(self_.id, *this, self_.coord);
  network_.send(self_.id, bootstrap_, net::BootstrapRegister{self_});
  begin_join();
  schedule_timers();
}

void GeoGridNode::begin_join() {
  if (joined_ || leaving_) return;
  ++join_attempts_;
  network_.send(self_.id, bootstrap_, net::BootstrapEntryRequest{self_});
  // Retry until a grant lands (entry node may have died, probes may race).
  loop_.schedule_after(config_.join_retry, [this] {
    if (!joined_ && !leaving_ && join_attempts_ < 25) begin_join();
  });
}

void GeoGridNode::handle_entry_reply(const net::BootstrapEntryReply& m) {
  if (joined_) return;
  if (!m.entry) {
    found_grid();
    return;
  }
  // Route a join request toward our own coordinate via the entry node.
  network_.send(self_.id, m.entry->id,
                net::make_routed(self_.coord, net::JoinRequest{self_}));
}

void GeoGridNode::found_grid() {
  RegionSnapshot root;
  root.region = fresh_region_id();
  root.rect = config_.plane;
  root.primary = self_;
  take_seat(root, OwnerRole::kPrimary, {});
  joined_ = true;
  GEOGRID_DEBUG("node " << self_.id << " founded the grid");
}

// ---------------------------------------------------------------------------
// Snapshots and notifications.
// ---------------------------------------------------------------------------

RegionSnapshot GeoGridNode::snapshot_of(const OwnedRegion& region) const {
  RegionSnapshot s;
  s.region = region.id;
  s.rect = region.rect;
  s.split_depth = region.split_depth;
  if (region.is_primary()) {
    s.primary = self_;
    s.secondary = region.peer;
  } else {
    assert(region.peer.has_value());
    s.primary = *region.peer;
    s.secondary = self_;
  }
  s.load = region.load;
  s.workload_index = net::load_index(s.load, s.primary.capacity);
  return s;
}

void GeoGridNode::send_to_region_primary(const RegionSnapshot& target,
                                         Message msg) {
  network_.send(self_.id, target.primary.id, std::move(msg));
}

void GeoGridNode::broadcast_neighbor_update(const OwnedRegion& region) {
  const RegionSnapshot snap = snapshot_of(region);
  for (const auto& [rid, nb] : region.neighbors) {
    network_.send(self_.id, nb.primary.id, net::NeighborUpdate{snap});
    if (nb.secondary) {
      network_.send(self_.id, nb.secondary->id, net::NeighborUpdate{snap});
    }
  }
  if (region.peer) {
    network_.send(self_.id, region.peer->id, net::NeighborUpdate{snap});
  }
}

void GeoGridNode::prune_neighbors(OwnedRegion& region) {
  std::erase_if(region.neighbors, [&](const auto& entry) {
    return entry.first == region.id ||
           !entry.second.rect.edge_adjacent(region.rect);
  });
}

// ---------------------------------------------------------------------------
// Join handling (owner side).
// ---------------------------------------------------------------------------

void GeoGridNode::handle_join_request(NodeId /*from*/,
                                      const net::JoinRequest& m) {
  OwnedRegion* covering = covering_region(m.joiner.coord);
  if (covering == nullptr || !covering->is_primary()) {
    network_.send(self_.id, m.joiner.id,
                  net::JoinReject{"not the covering primary"});
    return;
  }
  if (config_.mode == GridMode::kBasic) {
    basic_split_for(m.joiner, covering->id);
    return;
  }
  // Dual-peer: the joiner probes the covering region and its neighborhood.
  net::JoinProbeReply reply;
  reply.covering = snapshot_of(*covering);
  reply.neighbors = covering->neighbor_list();
  network_.send(self_.id, m.joiner.id, reply);
}

void GeoGridNode::basic_split_for(const NodeInfo& joiner, RegionId region_id) {
  // The joiner founds the half we give away, whichever half it sits in.
  split_region(owned_.at(region_id), joiner, nullptr,
               [&](const RegionSnapshot& given,
                   std::vector<RegionSnapshot> neighbors) {
                 net::JoinGrant grant;
                 grant.region_state = given;
                 grant.role = OwnerRole::kPrimary;
                 grant.neighbors = std::move(neighbors);
                 network_.send(self_.id, joiner.id, grant);
               });
}

void GeoGridNode::split_region(
    OwnedRegion& region, NodeInfo taker,
    const std::function<void(RegionSnapshot& given)>& place,
    const std::function<void(const RegionSnapshot& given,
                             std::vector<RegionSnapshot> neighbors)>&
        hand_over) {
  const Axis axis = overlay::split_axis_for_depth(region.split_depth);
  const auto [low, high] = region.rect.split(axis);
  const bool keep_low = low.owns(self_.coord, config_.plane);

  const std::map<RegionId, RegionSnapshot> old_neighbors = region.neighbors;
  region.rect = keep_low ? low : high;
  region.split_depth += 1;
  region.load *= 0.5;  // refreshed by the next stats round
  region.peer.reset();

  RegionSnapshot given;
  given.region = fresh_region_id();
  given.rect = keep_low ? high : low;
  given.split_depth = region.split_depth;
  given.primary = taker;
  given.load = region.load;
  given.workload_index = net::load_index(given.load, taker.capacity);
  if (place) place(given);

  prune_neighbors(region);
  region.neighbors[given.region] = given;
  std::vector<RegionSnapshot> given_neighbors;
  for (const auto& [rid, snap] : old_neighbors) {
    if (snap.rect.edge_adjacent(given.rect)) given_neighbors.push_back(snap);
  }
  given_neighbors.push_back(snapshot_of(region));
  hand_over(given, std::move(given_neighbors));

  // Tell the old neighborhood about both halves.
  const RegionSnapshot mine = snapshot_of(region);
  for (const auto& [rid, snap] : old_neighbors) {
    network_.send(self_.id, snap.primary.id, net::NeighborUpdate{mine});
    network_.send(self_.id, snap.primary.id, net::NeighborUpdate{given});
  }
}

RegionId GeoGridNode::fresh_region_id() {
  // Globally unique: the node id fills the high bits.
  return RegionId{(self_.id.value << 12) | (next_local_region_++ & 0xfff)};
}

void GeoGridNode::handle_probe_reply(const net::JoinProbeReply& m) {
  if (joined_) return;
  const dualpeer::JoinDecision decision =
      dualpeer::select_join_target(m.covering, m.neighbors);

  const auto snapshot_for = [&](RegionId rid) -> const RegionSnapshot* {
    if (m.covering.region == rid) return &m.covering;
    for (const auto& s : m.neighbors) {
      if (s.region == rid) return &s;
    }
    return nullptr;
  };
  const RegionSnapshot* target = snapshot_for(decision.region);
  assert(target != nullptr);

  if (decision.action == dualpeer::JoinDecision::Action::kFillSecondary) {
    network_.send(self_.id, target->primary.id,
                  net::SecondaryJoinRequest{self_, decision.region});
  } else {
    network_.send(self_.id, target->primary.id,
                  net::SplitJoinRequest{self_, decision.region});
  }
}

void GeoGridNode::handle_secondary_join(NodeId /*from*/,
                                        const net::SecondaryJoinRequest& m) {
  auto it = owned_.find(m.region);
  // A region mid-adaptation is about to change hands: bounce the joiner.
  if (pending_.active || it == owned_.end() || !it->second.is_primary() ||
      it->second.full()) {
    network_.send(self_.id, m.joiner.id,
                  net::JoinReject{"region changed, retry"});
    return;
  }
  OwnedRegion& region = it->second;
  GEOGRID_DEBUG("node " << self_.id << " seats secondary " << m.joiner.id
                        << " in " << m.region << " rect "
                        << region.rect.to_string());
  region.peer = m.joiner;
  peer_last_heard_[m.region] = loop_.now();
  OwnerRole joiner_role = OwnerRole::kSecondary;
  if (dualpeer::joiner_takes_primary(m.joiner.capacity, self_.capacity)) {
    // The stronger joiner takes over the primary role once it has copied
    // our state (immediate in simulation).
    region.role = OwnerRole::kSecondary;
    joiner_role = OwnerRole::kPrimary;
  }

  net::JoinGrant grant;
  grant.region_state = snapshot_of(region);
  grant.role = joiner_role;
  grant.neighbors = region.neighbor_list();
  network_.send(self_.id, m.joiner.id, grant);
  sync_peer(region);
  broadcast_neighbor_update(region);
}

void GeoGridNode::handle_split_join(NodeId /*from*/,
                                    const net::SplitJoinRequest& m) {
  auto it = owned_.find(m.region);
  if (pending_.active || it == owned_.end() || !it->second.is_primary() ||
      !it->second.full()) {
    network_.send(self_.id, m.joiner.id,
                  net::JoinReject{"region changed, retry"});
    return;
  }
  OwnedRegion& region = it->second;
  GEOGRID_DEBUG("node " << self_.id << " split-join " << m.region
                        << " rect " << region.rect.to_string()
                        << " joiner " << m.joiner.id);
  const NodeInfo departing_secondary = *region.peer;

  // The old secondary founds the given half.  The joiner fills the half
  // whose owner has less available capacity, as primary if it is stronger.
  bool joiner_with_me = false;
  OwnerRole joiner_role = OwnerRole::kSecondary;
  const auto place_joiner = [&](RegionSnapshot& given) {
    joiner_with_me =
        dualpeer::pick_half_to_join(snapshot_of(region), given) == region.id;
    if (joiner_with_me) {
      region.peer = m.joiner;
      peer_last_heard_[m.region] = loop_.now();
      if (dualpeer::joiner_takes_primary(m.joiner.capacity, self_.capacity)) {
        region.role = OwnerRole::kSecondary;
        joiner_role = OwnerRole::kPrimary;
      }
    } else if (dualpeer::joiner_takes_primary(m.joiner.capacity,
                                              departing_secondary.capacity)) {
      given.secondary = departing_secondary;
      given.primary = m.joiner;
      given.workload_index = net::load_index(given.load, m.joiner.capacity);
      joiner_role = OwnerRole::kPrimary;
    } else {
      given.secondary = m.joiner;
    }
  };
  const auto hand_over = [&](const RegionSnapshot& given,
                             std::vector<RegionSnapshot> neighbors) {
    // Hand the new half to the old secondary (dropping its seat here).
    net::RegionHandoff handoff;
    handoff.region_state = given;
    handoff.neighbors = neighbors;
    handoff.vacate = region.id;
    network_.send(self_.id, departing_secondary.id, handoff);
    // Grant the joiner its seat.
    net::JoinGrant grant;
    grant.role = joiner_role;
    if (joiner_with_me) {
      grant.region_state = snapshot_of(region);
      grant.neighbors = region.neighbor_list();
    } else {
      grant.region_state = given;
      grant.neighbors = std::move(neighbors);
    }
    network_.send(self_.id, m.joiner.id, grant);
  };
  split_region(region, departing_secondary, place_joiner, hand_over);
  if (joiner_with_me) sync_peer(region);
}

void GeoGridNode::handle_join_grant(const net::JoinGrant& m) {
  if (joined_) return;
  OwnedRegion& region = take_seat(m.region_state, m.role, m.neighbors);
  GEOGRID_DEBUG("node " << self_.id << " grant-adopts " << region.id
                        << " rect " << region.rect.to_string() << " role "
                        << (region.role == OwnerRole::kPrimary ? "P" : "S"));
  joined_ = true;
  peer_last_heard_[region.id] = loop_.now();
  for (const auto& [nid, nb] : region.neighbors) {
    neighbor_last_heard_[nid] = loop_.now();
  }
  broadcast_neighbor_update(region);
  GEOGRID_DEBUG("node " << self_.id << " joined region " << region.id);
}

OwnedRegion& GeoGridNode::take_seat(
    const RegionSnapshot& snap, OwnerRole role,
    std::span<const RegionSnapshot> candidates) {
  OwnedRegion seat;
  seat.id = snap.region;
  seat.rect = snap.rect;
  seat.split_depth = snap.split_depth;
  seat.role = role;
  seat.peer = role == OwnerRole::kPrimary ? snap.secondary
                                          : std::optional(snap.primary);
  seat.load = snap.load;
  for (const RegionSnapshot& c : candidates) {
    if (c.region != seat.id && c.rect.edge_adjacent(seat.rect)) {
      seat.neighbors[c.region] = c;
    }
  }
  OwnedRegion& slot = owned_[seat.id];
  slot = std::move(seat);
  return slot;
}

void GeoGridNode::drop_seat(RegionId region) {
  owned_.erase(region);
  peer_last_heard_.erase(region);
}

// ---------------------------------------------------------------------------
// Routing.
// ---------------------------------------------------------------------------

OwnedRegion* GeoGridNode::covering_region(const Point& p) {
  for (auto& [rid, region] : owned_) {
    if (region.rect.owns(p, config_.plane)) {
      return &region;
    }
  }
  return nullptr;
}

void GeoGridNode::route_or_handle(net::Routed env) {
  if (covering_region(env.target) != nullptr) {
    dispatch(self_.id, net::unwrap_routed(env), env.hops);
    return;
  }
  if (env.hops >= config_.max_route_hops) {
    // Expected for probes aimed at orphaned space (nobody covers the
    // target, so the envelope bounces between the nearest regions until
    // the hop budget runs out) — by design, not an error.
    ++counters_.routes_dropped_hop_limit;
    GEOGRID_DEBUG("dropping routed message at hop limit, target "
                  << env.target);
    return;
  }
  // Candidates: every neighbor snapshot across our regions.
  std::vector<overlay::HopCandidate> candidates;
  std::vector<const RegionSnapshot*> snaps;
  for (const auto& [rid, region] : owned_) {
    for (const auto& [nid, snap] : region.neighbors) {
      if (owned_.contains(nid)) continue;
      candidates.push_back(overlay::HopCandidate{nid, snap.rect});
      snaps.push_back(&snap);
    }
  }
  const auto next =
      overlay::greedy_next(candidates, env.target, config_.plane);
  if (!next) {
    // Transient while neighbor tables converge after a join or repair; the
    // sender retries (joins re-bootstrap, queries are re-issued by apps).
    ++counters_.routes_dropped_no_route;
    GEOGRID_DEBUG("node " << self_.id << " has no route toward "
                          << env.target);
    return;
  }
  const RegionSnapshot* chosen = nullptr;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    if (candidates[i].region == *next) {
      chosen = snaps[i];
      break;
    }
  }
  env.hops += 1;
  ++counters_.routed_forwarded;
  network_.send(self_.id, chosen->primary.id, std::move(env));
}

// ---------------------------------------------------------------------------
// Application layer.
// ---------------------------------------------------------------------------

std::uint64_t GeoGridNode::submit_query(const Rect& area,
                                        const std::string& filter) {
  net::LocationQuery q;
  q.query_id = (static_cast<std::uint64_t>(self_.id.value) << 32) |
               ++next_request_id_;
  q.focal = self_;
  q.area = area;
  q.filter = filter;
  ++counters_.queries_submitted;
  route_or_handle(net::make_routed(area.center(), q));
  return q.query_id;
}

std::uint64_t GeoGridNode::subscribe(const Rect& area,
                                     const std::string& filter,
                                     double duration) {
  net::Subscribe s;
  s.sub_id = (static_cast<std::uint64_t>(self_.id.value) << 32) |
             ++next_request_id_;
  s.subscriber = self_;
  s.area = area;
  s.filter = filter;
  s.duration = duration;
  route_or_handle(net::make_routed(area.center(), s));
  return s.sub_id;
}

void GeoGridNode::unsubscribe(std::uint64_t sub_id, const Rect& area) {
  net::Unsubscribe u;
  u.sub_id = sub_id;
  u.subscriber = self_;
  u.area = area;
  route_or_handle(net::make_routed(area.center(), u));
}

void GeoGridNode::publish(const Point& location, const std::string& topic,
                          const std::string& payload) {
  net::Publish p;
  p.location = location;
  p.topic = topic;
  p.payload = payload;
  route_or_handle(net::make_routed(location, p));
}

void GeoGridNode::execute_query(const net::LocationQuery& q,
                                OwnedRegion& region) {
  ++counters_.queries_executed;
  net::QueryResult result;
  result.query_id = q.query_id;
  result.from_region = region.id;
  result.payload = "region " + region.rect.to_string();
  network_.send(self_.id, q.focal.id, result);
}

template <typename Request, typename TakesCopy, typename Act>
std::size_t GeoGridNode::area_step(const Request& request,
                                   TakesCopy takes_copy, Act act) {
  OwnedRegion* covering = covering_region(request.area.center());
  if (covering == nullptr) {
    for (auto& [rid, region] : owned_) {
      if (region.is_primary() && takes_copy(region)) {
        act(region);
        break;
      }
    }
    return 0;
  }
  act(*covering);
  if (request.disseminated) return 0;
  Request copy = request;
  copy.disseminated = true;
  std::size_t sent = 0;
  for (const auto& [rid, snap] : covering->neighbors) {
    if (snap.rect.intersects(request.area)) {
      network_.send(self_.id, snap.primary.id, copy);
      ++sent;
    }
  }
  return sent;
}

void GeoGridNode::handle_location_query(const net::LocationQuery& q) {
  counters_.queries_disseminated += area_step(
      q, [&](const OwnedRegion& r) { return r.rect.intersects(q.area); },
      [&](OwnedRegion& r) { execute_query(q, r); });
}

void GeoGridNode::store_subscription(const net::Subscribe& s,
                                     OwnedRegion& region) {
  StoredSubscription stored;
  stored.sub = s;
  stored.expires = loop_.now() + s.duration;
  region.subscriptions.push_back(std::move(stored));
  region.app_version += 1;
  network_.send(self_.id, s.subscriber.id,
                net::SubscribeAck{s.sub_id, region.id});
  sync_peer(region);
}

void GeoGridNode::handle_subscribe(const net::Subscribe& s) {
  area_step(
      s, [&](const OwnedRegion& r) { return r.rect.intersects(s.area); },
      [&](OwnedRegion& r) { store_subscription(s, r); });
}

void GeoGridNode::drop_subscription(std::uint64_t sub_id,
                                    OwnedRegion& region) {
  const auto dropped = std::erase_if(
      region.subscriptions,
      [&](const StoredSubscription& s) { return s.sub.sub_id == sub_id; });
  if (dropped == 0) return;
  region.app_version += 1;
  sync_peer(region);
}

void GeoGridNode::handle_unsubscribe(const net::Unsubscribe& u) {
  // A region may have split since the subscription was stored, so a copy
  // looks for the id rather than for overlap with the area.
  const auto holds = [&](const OwnedRegion& r) {
    return std::any_of(
        r.subscriptions.begin(), r.subscriptions.end(),
        [&](const StoredSubscription& s) { return s.sub.sub_id == u.sub_id; });
  };
  area_step(u, holds,
            [&](OwnedRegion& r) { drop_subscription(u.sub_id, r); });
}

void GeoGridNode::prune_expired_subscriptions(OwnedRegion& region) {
  const sim::Time now = loop_.now();
  std::erase_if(region.subscriptions, [now](const StoredSubscription& s) {
    return s.expires <= now;
  });
}

void GeoGridNode::handle_publish(const net::Publish& p) {
  OwnedRegion* covering = covering_region(p.location);
  if (covering == nullptr) return;
  ++counters_.publishes_handled;
  // Lazily drop expired subscriptions, then match the rest.
  prune_expired_subscriptions(*covering);
  for (const auto& stored : covering->subscriptions) {
    const net::Subscribe& sub = stored.sub;
    const bool in_area = sub.area.covers(p.location);
    const bool topic_ok = sub.filter.empty() || sub.filter == p.topic;
    if (in_area && topic_ok) {
      network_.send(self_.id, sub.subscriber.id,
                    net::Notify{sub.sub_id, p.topic, p.payload});
    }
  }
}

// ---------------------------------------------------------------------------
// Mobile-user layer.
// ---------------------------------------------------------------------------

void GeoGridNode::submit_location_update(UserId user, const Point& location,
                                         std::uint64_t seq,
                                         std::optional<Point> prev) {
  net::LocationUpdate m;
  m.user = user;
  m.location = location;
  m.seq = seq;
  m.prev_location = prev;
  m.reporter = self_;
  ++counters_.location_updates_submitted;
  route_or_handle(net::make_routed(location, m));
}

std::uint64_t GeoGridNode::locate_user(UserId user, const Point& hint) {
  net::LocateRequest req;
  req.request_id = (static_cast<std::uint64_t>(self_.id.value) << 32) |
                   ++next_request_id_;
  req.requester = self_;
  req.user = user;
  req.hint = hint;
  route_or_handle(net::make_routed(hint, req));
  return req.request_id;
}

void GeoGridNode::handle_location_update(const net::LocationUpdate& m) {
  OwnedRegion* covering = covering_region(m.location);
  if (covering == nullptr) return;
  OwnedRegion& region = *covering;
  if (!region.is_primary() && region.peer) {
    // Routed envelopes hop between primaries, but a node can also hold a
    // secondary seat covering the target; the primary stays authoritative.
    network_.send(self_.id, region.peer->id, m);
    return;
  }
  mobility::LocationRecord rec;
  rec.user = m.user;
  rec.position = m.location;
  rec.seq = m.seq;
  rec.timestamp = loop_.now();
  if (!region.users.ingest(rec)) return;  // stale or replayed report
  ++counters_.location_updates_ingested;
  region.app_version += 1;
  network_.send(self_.id, m.reporter.id,
                net::LocationUpdateAck{m.user, m.seq, region.id});
  // Boundary crossing: the record moved here with the update; evict the
  // stale copy from the old owning region (routed toward the previous
  // position, so splits/merges/fail-overs en route cannot strand it).
  if (m.prev_location &&
      !region.rect.owns(*m.prev_location, config_.plane)) {
    ++counters_.user_handoffs;
    route_or_handle(net::make_routed(*m.prev_location,
                                     net::UserHandoff{m.user, m.seq,
                                                      region.id}));
  }
  notify_presence(region, m);
  sync_peer(region);
}

void GeoGridNode::notify_presence(OwnedRegion& region,
                                  const net::LocationUpdate& m) {
  prune_expired_subscriptions(region);
  for (const auto& stored : region.subscriptions) {
    const net::Subscribe& sub = stored.sub;
    if (!sub.filter.empty() && sub.filter != kPresenceTopic) continue;
    const bool now_inside = sub.area.covers(m.location);
    if (!now_inside) continue;
    // Duplicate suppression: a user wandering *inside* the subscribed area
    // already fired when it entered; only the crossing notifies.
    if (m.prev_location && sub.area.covers(*m.prev_location)) {
      continue;
    }
    net::Notify n;
    n.sub_id = sub.sub_id;
    n.topic = std::string(kPresenceTopic);
    n.payload = "user " + std::to_string(m.user.value);
    network_.send(self_.id, sub.subscriber.id, n);
    ++counters_.presence_notifies_sent;
  }
}

void GeoGridNode::handle_user_handoff(const net::UserHandoff& m) {
  for (auto& [rid, region] : owned_) {
    if (rid == m.new_region) continue;  // never evict from the new home
    if (region.users.erase_if_stale(m.user, m.seq)) {
      region.app_version += 1;
      if (region.is_primary()) sync_peer(region);
    }
  }
}

void GeoGridNode::handle_locate_request(const net::LocateRequest& m,
                                        std::uint16_t hops) {
  net::LocateReply reply;
  reply.request_id = m.request_id;
  reply.user = m.user;
  reply.hops = hops;
  // The hint may be slightly stale; any seat we hold can answer (the
  // secondary's replica serves reads after a fail-over too).
  for (auto& [rid, region] : owned_) {
    if (const auto rec = region.users.locate(m.user)) {
      reply.found = true;
      reply.location = rec->position;
      reply.seq = rec->seq;
      reply.region = rid;
      break;
    }
  }
  ++counters_.locates_served;
  network_.send(self_.id, m.requester.id, reply);
}

void GeoGridNode::set_region_load(RegionId region, double load) {
  auto it = owned_.find(region);
  if (it != owned_.end()) it->second.load = load;
}

double GeoGridNode::workload_index() const {
  double load = 0.0;
  for (const auto& [rid, region] : owned_) {
    if (region.is_primary()) load += region.load;
  }
  return net::load_index(load, self_.capacity);
}

}  // namespace geogrid::core
