// GeoGridNode: timers, heartbeats, failure recovery, departure, and the
// load-balance adaptation handshakes.  (The join/routing/application half of
// the class lives in node.cc.)
#include <algorithm>
#include <cassert>

#include "common/logging.h"
#include "core/node.h"
#include "loadbalance/snapshot_planner.h"

namespace geogrid::core {

using loadbalance::Mechanism;
using loadbalance::Plan;
using net::Message;
using net::NodeInfo;
using net::OwnerRole;
using net::RegionSnapshot;

namespace {

/// Serializes a region's replicated application state (subscriptions and
/// the mobile-user location store) for primary -> secondary replication.
std::string encode_app_state(const OwnedRegion& region) {
  net::Writer w;
  net::put(w, region.subscriptions);
  region.users.encode(w);
  const auto bytes = std::move(w).take();
  return std::string(reinterpret_cast<const char*>(bytes.data()),
                     bytes.size());
}

/// Inverse of encode_app_state: installs the blob into `region`.
void decode_app_state(const std::string& blob, OwnedRegion& region) {
  net::Reader r(reinterpret_cast<const std::byte*>(blob.data()), blob.size());
  net::get(r, region.subscriptions);
  region.users = mobility::LocationStore::decode(r);
}

net::Heartbeat heartbeat_of(const OwnedRegion& region, double capacity) {
  net::Heartbeat hb;
  hb.region = region.id;
  hb.load = region.load;
  hb.available = std::max(0.0, capacity - region.load);
  return hb;
}

/// The distinct primaries of the neighbor regions of every seat in `owned`,
/// in first-seen order, leaving out `skip`.
std::vector<NodeId> neighbor_primaries(
    const std::map<RegionId, OwnedRegion>& owned, NodeId skip = NodeId{}) {
  std::vector<NodeId> primaries;
  for (const auto& [rid, region] : owned) {
    for (const auto& [nid, snap] : region.neighbors) {
      const NodeId primary = snap.primary.id;
      if (primary != skip && std::find(primaries.begin(), primaries.end(),
                                       primary) == primaries.end()) {
        primaries.push_back(primary);
      }
    }
  }
  return primaries;
}

/// The neighbor-learning rule: `snap` enters the table of every other seat
/// it borders and leaves the table of every seat it does not.
void learn_neighbor(std::map<RegionId, OwnedRegion>& owned,
                    const RegionSnapshot& snap) {
  for (auto& [rid, region] : owned) {
    if (rid == snap.region) continue;
    if (snap.rect.edge_adjacent(region.rect)) {
      region.neighbors[snap.region] = snap;
    } else {
      region.neighbors.erase(snap.region);
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Timers.
// ---------------------------------------------------------------------------

void GeoGridNode::schedule_timers() {
  // Each timer reschedules itself; `leaving_` gates shutdown.  Initial
  // phases are jittered so the fleet does not tick in lockstep.  The
  // closure holds only a weak reference to itself (owned by timer_fns_) to
  // avoid a shared_ptr cycle; reschedules are not individually tracked —
  // shutdown is via the leaving_ flag.
  const auto arm = [this](double interval, auto member) {
    auto tick = std::make_shared<std::function<void()>>();
    std::weak_ptr<std::function<void()>> weak = tick;
    *tick = [this, interval, member, weak] {
      if (leaving_) return;
      (this->*member)();
      if (auto fn = weak.lock()) loop_.schedule_after(interval, *fn);
    };
    timer_fns_.push_back(tick);
    timers_.push_back(
        loop_.schedule_after(rng_.uniform(0.0, interval), *tick));
  };
  arm(config_.peer_sync_interval, &GeoGridNode::tick_peer_sync);
  arm(config_.heartbeat_interval, &GeoGridNode::tick_heartbeat);
  arm(config_.stats_interval, &GeoGridNode::tick_stats);
  arm(config_.failure_timeout / 2.0, &GeoGridNode::tick_failure_check);
  if (config_.enable_adaptation()) {
    arm(config_.adaptation_interval, &GeoGridNode::tick_adaptation);
  }
}

void GeoGridNode::sync_peer(OwnedRegion& region) {
  if (!region.is_primary() || !region.peer) return;
  net::SyncState sync;
  sync.region = region.id;
  sync.version = region.app_version;
  sync.payload = encode_app_state(region);
  network_.send(self_.id, region.peer->id, sync);
}

void GeoGridNode::tick_peer_sync() {
  for (auto& [rid, region] : owned_) {
    // Expiry cleanup runs on every seat — secondaries included — so a
    // replica that fails over holds no lapsed subscriptions to fire from.
    prune_expired_subscriptions(region);
    if (!region.peer) continue;
    network_.send(self_.id, region.peer->id,
                  heartbeat_of(region, self_.capacity));
    if (region.is_primary()) sync_peer(region);
  }
}

void GeoGridNode::tick_heartbeat() {
  for (auto& [rid, region] : owned_) {
    if (!region.is_primary()) continue;
    const net::Heartbeat hb = heartbeat_of(region, self_.capacity);
    for (const auto& [nid, snap] : region.neighbors) {
      network_.send(self_.id, snap.primary.id, hb);
    }
  }
}

void GeoGridNode::tick_stats() {
  net::LoadStatsExchange stats;
  for (const auto& [rid, region] : owned_) {
    if (region.is_primary()) stats.regions.push_back(snapshot_of(region));
  }
  if (stats.regions.empty()) return;
  // One gossip message per distinct neighbor primary.
  for (NodeId to : neighbor_primaries(owned_)) {
    network_.send(self_.id, to, stats);
  }
}

void GeoGridNode::tick_failure_check() {
  const sim::Time now = loop_.now();

  // Dead dual peers.
  for (auto& [rid, region] : owned_) {
    if (!region.peer) continue;
    const auto heard = peer_last_heard_.find(rid);
    const sim::Time last = heard == peer_last_heard_.end() ? 0.0 : heard->second;
    if (now - last <= config_.failure_timeout) continue;
    GEOGRID_DEBUG("node " << self_.id << " declares peer "
                          << region.peer->id << " of " << rid << " dead");
    if (region.is_primary()) {
      region.peer.reset();  // region drops to half-full
    } else {
      // Fail-over: activate the replica and take the region over.
      region.role = OwnerRole::kPrimary;
      region.peer.reset();
      ++counters_.takeovers;
      broadcast_neighbor_update(region);
      for (const auto& [nid, snap] : region.neighbors) {
        network_.send(self_.id, snap.primary.id,
                      net::TakeoverNotice{snapshot_of(region)});
      }
    }
  }

  // Suspected-dead neighbor regions: a half-full neighbor region whose
  // primary went silent has no replica to recover it.  The silence may
  // also mean our table entry is stale (the region split or merged and we
  // fell out of its neighborhood), so before adopting anything we route an
  // OwnerProbe to the region's last known center: a living owner replies
  // and clears the suspicion; a reply naming a different region retires
  // our stale entry.  Only a probe that stays unanswered for a full
  // failure-timeout grace period leads to caretaker adoption.
  for (auto& [rid, region] : owned_) {
    if (!region.is_primary()) continue;
    std::vector<RegionId> suspects;
    for (const auto& [nid, snap] : region.neighbors) {
      const auto heard = neighbor_last_heard_.find(nid);
      const sim::Time last =
          heard == neighbor_last_heard_.end() ? 0.0 : heard->second;
      if (last == 0.0) continue;  // never heard: just joined, give it time
      if (now - last <= config_.failure_timeout * 2.0) continue;
      if (snap.secondary) continue;  // its replica will take over
      suspects.push_back(nid);
    }
    for (RegionId nid : suspects) {
      const RegionSnapshot snap = region.neighbors.at(nid);
      const auto suspect = suspect_since_.find(nid);
      if (suspect == suspect_since_.end()) {
        suspect_since_[nid] = now;
        route_or_handle(
            net::make_routed(snap.rect.center(), net::OwnerProbe{nid, self_}));
        continue;
      }
      if (now - suspect->second <= config_.failure_timeout) continue;
      // Grace expired.  If anything refreshed the entry since the probe,
      // the region is alive after all.
      if (neighbor_last_heard_[nid] > suspect->second) {
        suspect_since_.erase(nid);
        continue;
      }
      suspect_since_.erase(nid);
      // Deterministic caretaker election among the neighbors we can see.
      bool smallest = true;
      for (const auto& [oid, other] : region.neighbors) {
        if (oid == nid) continue;
        if (other.rect.edge_adjacent(snap.rect) &&
            other.primary.id < self_.id) {
          smallest = false;
          break;
        }
      }
      region.neighbors.erase(nid);
      neighbor_last_heard_.erase(nid);
      if (!smallest || owned_.contains(nid)) continue;
      adopt_orphan(snap);
    }
  }
}

void GeoGridNode::adopt_orphan(const RegionSnapshot& snap) {
  // Any region we know of may border the orphan.
  std::vector<RegionSnapshot> known;
  for (const auto& [rid, region] : owned_) {
    for (const auto& [nid, nb] : region.neighbors) known.push_back(nb);
  }
  OwnedRegion& adopted = take_seat(snap, OwnerRole::kPrimary, known);
  ++counters_.takeovers;
  broadcast_neighbor_update(adopted);
  // Flood the takeover a few hops wide: a rival caretaker whose view of
  // the orphan's neighborhood is disjoint from ours still hears of the
  // claim and the smaller-node-id rule can settle it.
  const net::TakeoverNotice claim{snapshot_of(adopted), /*flood_ttl=*/3};
  for (const NodeId to : neighbor_primaries(owned_)) {
    network_.send(self_.id, to, claim);
  }
  GEOGRID_DEBUG("node " << self_.id << " adopted orphan region "
                        << snap.region);
}

void GeoGridNode::handle_owner_probe(const net::OwnerProbe& m) {
  // We cover the probed area: tell the prober who actually owns it.
  // (route_or_handle only delivers this when some owned region covers the
  // probed center.)  Either seat of the probed region proves it alive.
  if (const auto it = owned_.find(m.region); it != owned_.end()) {
    network_.send(self_.id, m.prober.id,
                  net::NeighborUpdate{snapshot_of(it->second)});
    return;
  }
  // The probed region id is not ours: it was split, merged or renamed.
  // Retire the prober's stale entry and teach it the covering region.
  network_.send(self_.id, m.prober.id, net::NeighborRemove{m.region});
  for (auto& [rid, region] : owned_) {
    if (region.is_primary()) {
      network_.send(self_.id, m.prober.id,
                    net::NeighborUpdate{snapshot_of(region)});
    }
  }
}

// ---------------------------------------------------------------------------
// Maintenance message handlers.
// ---------------------------------------------------------------------------

void GeoGridNode::handle_heartbeat(NodeId from, const net::Heartbeat& m) {
  if (auto it = owned_.find(m.region);
      it != owned_.end() && it->second.peer &&
      it->second.peer->id == from) {
    peer_last_heard_[m.region] = loop_.now();
    if (!it->second.is_primary()) it->second.load = m.load;
    return;
  }
  for (auto& [rid, region] : owned_) {
    auto nb = region.neighbors.find(m.region);
    if (nb == region.neighbors.end()) continue;
    neighbor_last_heard_[m.region] = loop_.now();
    nb->second.load = m.load;
    nb->second.workload_index =
        net::load_index(m.load, nb->second.primary.capacity);
  }
}

void GeoGridNode::handle_load_stats(NodeId /*from*/,
                                    const net::LoadStatsExchange& m) {
  for (const auto& snap : m.regions) {
    neighbor_last_heard_[snap.region] = loop_.now();
    learn_neighbor(owned_, snap);
  }
}

void GeoGridNode::handle_neighbor_update(const net::NeighborUpdate& m) {
  const RegionSnapshot& snap = m.snapshot;
  neighbor_last_heard_[snap.region] = loop_.now();
  // Caretaker-conflict relay: if this update names a different primary than
  // our table held for the same region, tell the displaced primary so the
  // smaller-node-id-wins rule can resolve conflicts even when the two
  // claimants cannot see each other directly.
  for (auto& [rid, region] : owned_) {
    const auto nb = region.neighbors.find(snap.region);
    if (nb == region.neighbors.end()) continue;
    const NodeId old_primary = nb->second.primary.id;
    if (old_primary != snap.primary.id && old_primary != self_.id &&
        snap.primary.id != self_.id &&
        (!snap.secondary || snap.secondary->id != old_primary)) {
      network_.send(self_.id, old_primary, net::TakeoverNotice{snap});
    }
    break;
  }
  if (auto it = owned_.find(snap.region); it != owned_.end()) {
    // Update about a region we hold a seat in: refresh peer identity
    // (ownership may have changed under an adaptation).
    OwnedRegion& region = it->second;
    if (region.is_primary() && snap.primary.id != self_.id &&
        snap.secondary && snap.secondary->id == self_.id) {
      GEOGRID_DEBUG("node " << self_.id << " demoted in " << snap.region
                            << " by update from " << snap.primary.id);
      region.role = OwnerRole::kSecondary;
      region.peer = snap.primary;
    } else if (!region.is_primary() && snap.primary.id != self_.id) {
      region.peer = snap.primary;
    }
    return;
  }
  learn_neighbor(owned_, snap);
}

void GeoGridNode::handle_neighbor_remove(const net::NeighborRemove& m) {
  for (auto& [rid, region] : owned_) region.neighbors.erase(m.region);
  neighbor_last_heard_.erase(m.region);
  suspect_since_.erase(m.region);
}

void GeoGridNode::handle_takeover(const net::TakeoverNotice& m) {
  const RegionSnapshot& snap = m.snapshot;
  // Forward flooded caretaker claims (dedup per region/claimant pair).
  if (m.flood_ttl > 0) {
    const std::uint64_t key =
        (static_cast<std::uint64_t>(snap.region.value) << 32) |
        snap.primary.id.value;
    if (seen_searches_.insert(key ^ 0x7a6b0ff0c0ffeeULL).second) {
      net::TakeoverNotice forwarded = m;
      forwarded.flood_ttl = static_cast<std::uint8_t>(m.flood_ttl - 1);
      if (forwarded.flood_ttl > 0) {
        for (const NodeId to : neighbor_primaries(owned_, snap.primary.id)) {
          network_.send(self_.id, to, forwarded);
        }
      }
    }
  }
  if (auto it = owned_.find(snap.region); it != owned_.end()) {
    OwnedRegion& region = it->second;
    if (region.is_primary() && snap.primary.id != self_.id) {
      // Two nodes believe they lead this region.  Smaller node id wins;
      // the loser demotes (keeping its seat when it is the claimed
      // secondary — mutual peer confusion after a false death) or drops,
      // and the winner corrects the loser directly.
      if (snap.primary.id < self_.id) {
        if (region.peer && region.peer->id == snap.primary.id) {
          region.role = OwnerRole::kSecondary;  // resume the backup seat
          peer_last_heard_[snap.region] = loop_.now();
        } else if (snap.secondary && snap.secondary->id == self_.id) {
          region.role = OwnerRole::kSecondary;
          region.peer = snap.primary;
          peer_last_heard_[snap.region] = loop_.now();
        } else {
          drop_seat(snap.region);
        }
      } else {
        network_.send(self_.id, snap.primary.id,
                      net::TakeoverNotice{snapshot_of(region)});
      }
      return;
    }
    if (!region.is_primary()) region.peer = snap.primary;
    return;
  }
  handle_neighbor_update(net::NeighborUpdate{snap});
}

void GeoGridNode::handle_leave_notice(NodeId from, const net::LeaveNotice& m) {
  auto it = owned_.find(m.region);
  if (it != owned_.end() && it->second.peer &&
      it->second.peer->id == from) {
    OwnedRegion& region = it->second;
    region.peer.reset();
    peer_last_heard_.erase(m.region);
    if (m.was_primary && !region.is_primary()) {
      // "The departure of the primary owner will cause the activation of
      // the secondary owner."
      region.role = OwnerRole::kPrimary;
      ++counters_.takeovers;
      broadcast_neighbor_update(region);
    }
    return;
  }
  // A neighbor's owner left; its successor will announce itself.
}

void GeoGridNode::handle_region_handoff(const net::RegionHandoff& m) {
  if (m.vacate.valid()) drop_seat(m.vacate);
  const RegionSnapshot& snap = m.region_state;
  OwnedRegion& region = take_seat(
      snap,
      snap.primary.id == self_.id ? OwnerRole::kPrimary : OwnerRole::kSecondary,
      m.neighbors);
  GEOGRID_DEBUG("node " << self_.id << " handoff-adopts " << region.id
                        << " rect " << region.rect.to_string() << " vacate "
                        << m.vacate);
  peer_last_heard_[region.id] = loop_.now();
  // Fresh liveness grace for the inherited neighbor table: heartbeats from
  // these regions only start flowing once our update below lands.
  for (const auto& [nid, nb] : region.neighbors) {
    neighbor_last_heard_[nid] = loop_.now();
  }
  broadcast_neighbor_update(region);
  if (region.is_primary()) {
    const net::TakeoverNotice notice{snapshot_of(region)};
    for (const auto& [nid, nb] : region.neighbors) {
      network_.send(self_.id, nb.primary.id, notice);
    }
  }
}

// ---------------------------------------------------------------------------
// Departure.
// ---------------------------------------------------------------------------

void GeoGridNode::leave() {
  if (!started_ || leaving_) return;
  leaving_ = true;
  for (auto& [rid, region] : owned_) {
    if (region.peer) {
      network_.send(self_.id, region.peer->id,
                    net::LeaveNotice{rid, region.is_primary()});
      continue;
    }
    // Last owner: hand the region to the least-loaded known neighbor.
    const RegionSnapshot* caretaker = nullptr;
    for (const auto& [nid, snap] : region.neighbors) {
      if (caretaker == nullptr ||
          snap.workload_index < caretaker->workload_index) {
        caretaker = &snap;
      }
    }
    if (caretaker == nullptr) continue;  // we were the whole grid
    net::RegionHandoff handoff;
    handoff.region_state = snapshot_of(region);
    handoff.region_state.primary = caretaker->primary;
    handoff.region_state.secondary.reset();
    handoff.neighbors = region.neighbor_list();
    network_.send(self_.id, caretaker->primary.id, handoff);
  }
  for (auto& t : timers_) t.cancel();
  timers_.clear();
  timer_fns_.clear();
  owned_.clear();
  joined_ = false;
  network_.detach(self_.id);
}

void GeoGridNode::crash() {
  if (!started_) return;
  leaving_ = true;  // silences timers; no goodbye messages
  for (auto& t : timers_) t.cancel();
  timers_.clear();
  timer_fns_.clear();
  network_.set_up(self_.id, false);
}

// ---------------------------------------------------------------------------
// Adaptation.
// ---------------------------------------------------------------------------

void GeoGridNode::clear_adaptation_state() {
  pending_ = PendingAdaptation{};
}

void GeoGridNode::tick_adaptation() {
  if (!joined_) return;
  if (pending_.active) {
    // Handshake or search stuck: give up and re-plan next tick.
    if (loop_.now() - pending_.started > 2.0 * config_.adaptation_interval) {
      clear_adaptation_state();
    }
    return;
  }

  // Hottest primary region is the adaptation subject.
  OwnedRegion* subject = nullptr;
  for (auto& [rid, region] : owned_) {
    if (!region.is_primary()) continue;
    if (subject == nullptr || region.load > subject->load) {
      subject = &region;
    }
  }
  if (subject == nullptr || subject->neighbors.empty()) return;

  const std::vector<RegionSnapshot> neighbors = subject->neighbor_list();
  if (!loadbalance::should_adapt_snapshots(workload_index(), neighbors,
                                           config_.planner.trigger_ratio)) {
    return;
  }

  const RegionSnapshot subject_snap = snapshot_of(*subject);
  const Plan local =
      loadbalance::plan_local(subject_snap, neighbors, config_.planner);
  if (local) {
    const RegionSnapshot* partner_snap = nullptr;
    if (local.partner.valid()) {
      partner_snap = &subject->neighbors.at(local.partner);
    }
    initiate_plan(local, partner_snap ? *partner_snap : RegionSnapshot{});
    return;
  }

  // No local mechanism applies: TTL-guided search for remote candidates.
  pending_.active = true;
  pending_.searching = true;
  pending_.subject = subject->id;
  pending_.started = loop_.now();
  pending_.search_id = ++next_search_id_;
  net::TtlSearchRequest search;
  search.search_id = pending_.search_id;
  search.origin = self_;
  search.min_capacity = self_.capacity;
  search.max_index = subject_snap.workload_index;
  search.ttl = static_cast<std::uint8_t>(config_.planner.search_ttl);
  search.depth = 1;
  for (const auto& [nid, snap] : subject->neighbors) {
    network_.send(self_.id, snap.primary.id, search);
  }
  timers_.push_back(loop_.schedule_after(config_.search_wait,
                                         [this] { finish_ttl_search(); }));
}

void GeoGridNode::finish_ttl_search() {
  if (!pending_.active || !pending_.searching) return;
  pending_.searching = false;
  auto subject_it = owned_.find(pending_.subject);
  if (subject_it == owned_.end() || !subject_it->second.is_primary() ||
      pending_.search_candidates.empty()) {
    clear_adaptation_state();
    return;
  }
  const RegionSnapshot subject_snap = snapshot_of(subject_it->second);
  const Plan remote = loadbalance::plan_remote(
      subject_snap, pending_.search_candidates, config_.planner);
  if (!remote) {
    clear_adaptation_state();
    return;
  }
  const RegionSnapshot* partner_snap = nullptr;
  for (const auto& c : pending_.search_candidates) {
    if (c.region == remote.partner) {
      partner_snap = &c;
      break;
    }
  }
  const RegionSnapshot partner_copy = *partner_snap;
  clear_adaptation_state();
  initiate_plan(remote, partner_copy);
}

void GeoGridNode::initiate_plan(const Plan& plan,
                                const RegionSnapshot& partner_snapshot) {
  auto it = owned_.find(plan.subject);
  if (it == owned_.end()) return;
  OwnedRegion& subject = it->second;
  ++counters_.adaptations_started;

  pending_.active = true;
  pending_.searching = false;
  pending_.mechanism = plan.mechanism;
  pending_.subject = plan.subject;
  pending_.partner = plan.partner;
  pending_.partner_snapshot = partner_snapshot;
  pending_.started = loop_.now();

  switch (plan.mechanism) {
    case Mechanism::kSplitRegion:
      execute_local_split(subject);
      return;
    case Mechanism::kStealSecondary:
    case Mechanism::kStealRemoteSecondary: {
      net::StealSecondaryRequest req;
      req.victim_region = plan.partner;
      req.overloaded = snapshot_of(subject);
      send_to_region_primary(partner_snapshot, req);
      return;
    }
    case Mechanism::kSwitchPrimary:
    case Mechanism::kSwitchWithRemotePrimary:
    case Mechanism::kSwitchWithNeighborSecondary:
    case Mechanism::kSwitchWithRemoteSecondary: {
      net::SwitchRequest req;
      req.kind = (plan.mechanism == Mechanism::kSwitchPrimary ||
                  plan.mechanism == Mechanism::kSwitchWithRemotePrimary)
                     ? net::SwitchKind::kPrimaryWithPrimary
                     : net::SwitchKind::kPrimaryWithSecondary;
      req.proposer_region = snapshot_of(subject);
      req.proposer_neighbors = subject.neighbor_list();
      req.target_region = plan.partner;
      send_to_region_primary(partner_snapshot, req);
      return;
    }
    case Mechanism::kMergeNeighbor: {
      net::MergeRequest req;
      req.proposer_region = snapshot_of(subject);
      req.proposer_neighbors = subject.neighbor_list();
      req.target_region = plan.partner;
      send_to_region_primary(partner_snapshot, req);
      return;
    }
  }
}

void GeoGridNode::execute_local_split(OwnedRegion& region) {
  assert(region.full() && region.is_primary());
  // Our secondary founds the given half, leaving its seat here.
  split_region(region, *region.peer, nullptr,
               [&](const RegionSnapshot& given,
                   std::vector<RegionSnapshot> neighbors) {
                 net::RegionHandoff handoff;
                 handoff.region_state = given;
                 handoff.neighbors = std::move(neighbors);
                 handoff.vacate = region.id;
                 network_.send(self_.id, given.primary.id, handoff);
               });
  ++counters_.adaptations_completed;
  clear_adaptation_state();
}

void GeoGridNode::handle_steal_request(NodeId from,
                                       const net::StealSecondaryRequest& m) {
  auto it = owned_.find(m.victim_region);
  // One adaptation at a time per node, in either role: while our own
  // proposal is in flight our region state is about to change, so any
  // incoming request is answered with a rejection (the requester retries
  // on its next trigger tick).
  if (pending_.active || it == owned_.end() || !it->second.is_primary() ||
      !it->second.full() ||
      it->second.peer->capacity <= m.overloaded.primary.capacity) {
    network_.send(self_.id, from,
                  net::StealSecondaryReject{m.victim_region});
    return;
  }
  OwnedRegion& region = it->second;
  const NodeInfo stolen = *region.peer;
  region.peer.reset();
  peer_last_heard_.erase(m.victim_region);
  network_.send(self_.id, from,
                net::StealSecondaryGrant{m.victim_region, stolen});
  broadcast_neighbor_update(region);
}

void GeoGridNode::handle_steal_grant(const net::StealSecondaryGrant& m) {
  if (!pending_.active || pending_.partner != m.victim_region) return;
  auto it = owned_.find(pending_.subject);
  if (it == owned_.end() || !it->second.is_primary() || it->second.full()) {
    clear_adaptation_state();
    return;
  }
  OwnedRegion& subject = it->second;
  // The stolen (stronger) node becomes our primary; we resign to secondary.
  subject.peer = m.stolen;
  subject.role = OwnerRole::kSecondary;
  peer_last_heard_[subject.id] = loop_.now();

  net::RegionHandoff handoff;
  handoff.region_state = snapshot_of(subject);
  handoff.neighbors = subject.neighbor_list();
  handoff.vacate = m.victim_region;
  network_.send(self_.id, m.stolen.id, handoff);
  broadcast_neighbor_update(subject);
  ++counters_.adaptations_completed;
  clear_adaptation_state();
}

void GeoGridNode::handle_switch_request(NodeId from,
                                        const net::SwitchRequest& m) {
  auto it = owned_.find(m.target_region);
  const auto reject = [&] {
    network_.send(self_.id, from, net::SwitchReject{m.target_region});
  };
  if (pending_.active || it == owned_.end() || !it->second.is_primary()) {
    reject();
    return;
  }
  OwnedRegion& region = it->second;
  const double proposer_cap = m.proposer_region.primary.capacity;

  if (m.kind == net::SwitchKind::kPrimaryWithPrimary) {
    // Validate with our current load: strict improvement required.
    const double my_index = net::load_index(region.load, self_.capacity);
    const double proposer_index = m.proposer_region.workload_index;
    const double old_max = std::max(proposer_index, my_index);
    const double new_max =
        std::max(m.proposer_region.load / self_.capacity,
                 net::load_index(region.load, proposer_cap));
    if (self_.capacity <= proposer_cap || new_max >= old_max) {
      reject();
      return;
    }
    // Adopt the proposer's region as primary; hand ours to the proposer.
    net::RegionHandoff handoff;
    handoff.region_state = snapshot_of(region);
    handoff.region_state.primary = m.proposer_region.primary;
    handoff.neighbors = region.neighbor_list();
    network_.send(self_.id, from, handoff);
    network_.send(self_.id, from,
                  net::SwitchGrant{m.kind, m.target_region, self_});

    drop_seat(m.target_region);
    OwnedRegion& adopted = take_seat(m.proposer_region, OwnerRole::kPrimary,
                                     m.proposer_neighbors);
    peer_last_heard_[adopted.id] = loop_.now();
    broadcast_neighbor_update(adopted);
    return;
  }

  // kPrimaryWithSecondary: our secondary moves out to lead the proposer's
  // region; the proposer becomes our secondary.
  if (!region.full() || region.peer->capacity <= proposer_cap) {
    reject();
    return;
  }
  const NodeInfo moving = *region.peer;
  region.peer = m.proposer_region.primary;
  peer_last_heard_[region.id] = loop_.now();

  net::RegionHandoff handoff;
  handoff.region_state = m.proposer_region;
  handoff.region_state.primary = moving;
  // The subject's old secondary (if any) keeps its seat.
  handoff.neighbors = m.proposer_neighbors;
  handoff.vacate = m.target_region;
  network_.send(self_.id, moving.id, handoff);
  network_.send(self_.id, from,
                net::SwitchGrant{m.kind, m.target_region, moving});
  broadcast_neighbor_update(region);
  sync_peer(region);
}

void GeoGridNode::handle_switch_grant(NodeId from, const net::SwitchGrant& m) {
  if (!pending_.active || pending_.partner != m.target_region) return;
  // Either way our old primary seat goes.  With primaries switched, the
  // new region arrives separately as a RegionHandoff; otherwise we moved
  // into the partner region's secondary seat.
  drop_seat(pending_.subject);
  if (m.kind == net::SwitchKind::kPrimaryWithSecondary) {
    take_seat(pending_.partner_snapshot, OwnerRole::kSecondary, {});
    peer_last_heard_[m.target_region] = loop_.now();
    network_.send(self_.id, from, net::HeartbeatAck{m.target_region});
  }
  ++counters_.adaptations_completed;
  clear_adaptation_state();
}

void GeoGridNode::handle_merge_request(NodeId from,
                                       const net::MergeRequest& m) {
  auto it = owned_.find(m.target_region);
  const auto reject = [&] {
    network_.send(self_.id, from, net::MergeReject{m.target_region});
  };
  if (pending_.active || it == owned_.end() || !it->second.is_primary() ||
      it->second.full() || m.proposer_region.full() ||
      !it->second.rect.mergeable(m.proposer_region.rect)) {
    reject();
    return;
  }
  OwnedRegion& region = it->second;
  const double my_index = net::load_index(region.load, self_.capacity);
  const double proposer_cap = m.proposer_region.primary.capacity;
  const double merged_cap = std::max(self_.capacity, proposer_cap);
  const double merged_load = region.load + m.proposer_region.load;
  const double merged_index = net::load_index(merged_load, merged_cap);
  const double average =
      (my_index + m.proposer_region.workload_index) / 2.0;
  if (merged_index >= average) {
    reject();
    return;
  }

  const Rect merged_rect = region.rect.merged(m.proposer_region.rect);
  GEOGRID_DEBUG("node " << self_.id << " grants merge: my " << m.target_region
                        << ' ' << region.rect.to_string() << " + proposer "
                        << m.proposer_region.region << ' '
                        << m.proposer_region.rect.to_string());
  if (self_.capacity >= proposer_cap) {
    // We keep the merged region; the proposer becomes our secondary.
    region.rect = merged_rect;
    region.split_depth = std::max(0, std::max(region.split_depth,
                                              m.proposer_region.split_depth) -
                                         1);
    region.load = merged_load;
    region.peer = m.proposer_region.primary;
    peer_last_heard_[region.id] = loop_.now();
    for (const auto& snap : m.proposer_neighbors) {
      if (snap.region != region.id && snap.region != m.proposer_region.region &&
          snap.rect.edge_adjacent(region.rect)) {
        region.neighbors[snap.region] = snap;
      }
    }
    region.neighbors.erase(m.proposer_region.region);
    prune_neighbors(region);
    network_.send(self_.id, from, net::MergeGrant{snapshot_of(region)});
    broadcast_neighbor_update(region);
    for (const auto& [nid, snap] : region.neighbors) {
      network_.send(self_.id, snap.primary.id,
                    net::NeighborRemove{m.proposer_region.region});
    }
    sync_peer(region);
    return;
  }

  // The proposer is stronger: it keeps its region id, absorbs ours, and we
  // become its secondary.
  RegionSnapshot merged = m.proposer_region;
  merged.rect = merged_rect;
  merged.split_depth = std::max(0, std::max(region.split_depth,
                                            m.proposer_region.split_depth) -
                                       1);
  merged.load = merged_load;
  merged.secondary = self_;
  merged.workload_index = net::load_index(merged_load, proposer_cap);

  // Our seat becomes a secondary seat of the proposer's (merged) region.
  const std::map<RegionId, RegionSnapshot> old_neighbors = region.neighbors;
  drop_seat(m.target_region);
  take_seat(merged, OwnerRole::kSecondary, {});
  peer_last_heard_[merged.region] = loop_.now();

  network_.send(self_.id, from, net::MergeGrant{merged});
  for (const auto& [nid, snap] : old_neighbors) {
    network_.send(self_.id, snap.primary.id,
                  net::NeighborRemove{m.target_region});
    network_.send(self_.id, snap.primary.id, net::NeighborUpdate{merged});
  }
}

void GeoGridNode::handle_merge_grant(NodeId /*from*/,
                                     const net::MergeGrant& m) {
  if (!pending_.active) return;
  auto it = owned_.find(pending_.subject);
  if (it == owned_.end()) {
    clear_adaptation_state();
    return;
  }
  if (m.merged.region == pending_.subject) {
    // We keep the region: extend it and seat the partner's old primary as
    // our secondary.
    OwnedRegion& region = it->second;
    region.rect = m.merged.rect;
    region.split_depth = m.merged.split_depth;
    region.load = m.merged.load;
    region.peer = m.merged.secondary;
    region.neighbors.erase(pending_.partner);
    prune_neighbors(region);
    peer_last_heard_[region.id] = loop_.now();
    broadcast_neighbor_update(region);
    for (const auto& [nid, snap] : region.neighbors) {
      network_.send(self_.id, snap.primary.id,
                    net::NeighborRemove{pending_.partner});
    }
    sync_peer(region);
  } else {
    // The partner absorbed our region; we are now its secondary.
    drop_seat(pending_.subject);
    take_seat(m.merged, OwnerRole::kSecondary, {});
    peer_last_heard_[m.merged.region] = loop_.now();
  }
  ++counters_.adaptations_completed;
  clear_adaptation_state();
}

void GeoGridNode::handle_ttl_search(NodeId /*from*/,
                                    const net::TtlSearchRequest& m) {
  if (m.origin.id == self_.id) return;
  const std::uint64_t key =
      (static_cast<std::uint64_t>(m.origin.id.value) << 32) | m.search_id;
  if (!seen_searches_.insert(key).second) return;

  // Reply from ring >= 2 with our best qualifying region.
  if (m.depth >= 2) {
    for (const auto& [rid, region] : owned_) {
      if (!region.is_primary()) continue;
      const RegionSnapshot snap = snapshot_of(region);
      const bool secondary_ok = snap.full() &&
                                snap.secondary->capacity > m.min_capacity &&
                                snap.workload_index < m.max_index;
      const bool primary_ok = self_.capacity > m.min_capacity &&
                              snap.workload_index < m.max_index;
      if (secondary_ok || primary_ok) {
        net::TtlSearchReply reply;
        reply.search_id = m.search_id;
        reply.candidate = snap;
        reply.role = secondary_ok ? net::SearchWant::kSecondary
                                  : net::SearchWant::kPrimary;
        network_.send(self_.id, m.origin.id, reply);
        break;
      }
    }
  }

  // Forward while the TTL allows.
  if (m.depth >= m.ttl) return;
  net::TtlSearchRequest forwarded = m;
  forwarded.depth = static_cast<std::uint8_t>(m.depth + 1);
  for (NodeId to : neighbor_primaries(owned_, m.origin.id)) {
    network_.send(self_.id, to, forwarded);
  }
}

void GeoGridNode::handle_ttl_reply(const net::TtlSearchReply& m) {
  if (!pending_.active || !pending_.searching ||
      m.search_id != pending_.search_id) {
    return;
  }
  // Ignore candidates we already neighbor (local mechanisms cover them).
  for (const auto& [rid, region] : owned_) {
    if (region.neighbors.contains(m.candidate.region)) return;
    if (rid == m.candidate.region) return;
  }
  pending_.search_candidates.push_back(m.candidate);
}

// ---------------------------------------------------------------------------
// Dispatcher.
// ---------------------------------------------------------------------------

void GeoGridNode::on_message(NodeId from, const Message& msg) {
  if (!leaving_) dispatch(from, msg, 0);
}

void GeoGridNode::dispatch(NodeId from, const Message& msg,
                           std::uint16_t hops) {
  // Exhaustive dispatch over the closed message variant; overloaded visit
  // keeps each handler's argument strongly typed.
  std::visit(
      [&](const auto& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, net::BootstrapEntryReply>) {
          handle_entry_reply(m);
        } else if constexpr (std::is_same_v<T, net::Routed>) {
          route_or_handle(m);
        } else if constexpr (std::is_same_v<T, net::JoinRequest>) {
          handle_join_request(from, m);
        } else if constexpr (std::is_same_v<T, net::JoinProbeReply>) {
          handle_probe_reply(m);
        } else if constexpr (std::is_same_v<T, net::SecondaryJoinRequest>) {
          handle_secondary_join(from, m);
        } else if constexpr (std::is_same_v<T, net::SplitJoinRequest>) {
          handle_split_join(from, m);
        } else if constexpr (std::is_same_v<T, net::JoinGrant>) {
          handle_join_grant(m);
        } else if constexpr (std::is_same_v<T, net::JoinReject>) {
          // Retry through the bootstrap service after the configured delay.
          loop_.schedule_after(config_.join_retry, [this] {
            if (!joined_ && !leaving_) begin_join();
          });
        } else if constexpr (std::is_same_v<T, net::NeighborUpdate>) {
          handle_neighbor_update(m);
        } else if constexpr (std::is_same_v<T, net::NeighborRemove>) {
          handle_neighbor_remove(m);
        } else if constexpr (std::is_same_v<T, net::LeaveNotice>) {
          handle_leave_notice(from, m);
        } else if constexpr (std::is_same_v<T, net::TakeoverNotice>) {
          handle_takeover(m);
        } else if constexpr (std::is_same_v<T, net::RegionHandoff>) {
          handle_region_handoff(m);
        } else if constexpr (std::is_same_v<T, net::Heartbeat>) {
          handle_heartbeat(from, m);
        } else if constexpr (std::is_same_v<T, net::HeartbeatAck>) {
          // Liveness only.
        } else if constexpr (std::is_same_v<T, net::SyncState>) {
          if (auto it = owned_.find(m.region);
              it != owned_.end() && !it->second.is_primary()) {
            it->second.app_version = m.version;
            decode_app_state(m.payload, it->second);
            peer_last_heard_[m.region] = loop_.now();
          }
        } else if constexpr (std::is_same_v<T, net::LoadStatsExchange>) {
          handle_load_stats(from, m);
        } else if constexpr (std::is_same_v<T, net::StealSecondaryRequest>) {
          handle_steal_request(from, m);
        } else if constexpr (std::is_same_v<T, net::StealSecondaryGrant>) {
          handle_steal_grant(m);
        } else if constexpr (std::is_same_v<T, net::StealSecondaryReject>) {
          clear_adaptation_state();
        } else if constexpr (std::is_same_v<T, net::SwitchRequest>) {
          handle_switch_request(from, m);
        } else if constexpr (std::is_same_v<T, net::SwitchGrant>) {
          handle_switch_grant(from, m);
        } else if constexpr (std::is_same_v<T, net::SwitchReject>) {
          clear_adaptation_state();
        } else if constexpr (std::is_same_v<T, net::MergeRequest>) {
          handle_merge_request(from, m);
        } else if constexpr (std::is_same_v<T, net::MergeGrant>) {
          handle_merge_grant(from, m);
        } else if constexpr (std::is_same_v<T, net::MergeReject>) {
          clear_adaptation_state();
        } else if constexpr (std::is_same_v<T, net::SplitRegionNotice>) {
          handle_neighbor_remove(net::NeighborRemove{m.old_region});
          handle_neighbor_update(net::NeighborUpdate{m.low});
          handle_neighbor_update(net::NeighborUpdate{m.high});
        } else if constexpr (std::is_same_v<T, net::TtlSearchRequest>) {
          handle_ttl_search(from, m);
        } else if constexpr (std::is_same_v<T, net::TtlSearchReply>) {
          handle_ttl_reply(m);
        } else if constexpr (std::is_same_v<T, net::LocationQuery>) {
          handle_location_query(m);
        } else if constexpr (std::is_same_v<T, net::QueryResult>) {
          ++counters_.results_received;
          if (on_result) on_result(m);
        } else if constexpr (std::is_same_v<T, net::Subscribe>) {
          handle_subscribe(m);
        } else if constexpr (std::is_same_v<T, net::Unsubscribe>) {
          handle_unsubscribe(m);
        } else if constexpr (std::is_same_v<T, net::SubscribeAck>) {
          // Acknowledgement only.
        } else if constexpr (std::is_same_v<T, net::Publish>) {
          handle_publish(m);
        } else if constexpr (std::is_same_v<T, net::Notify>) {
          ++counters_.notifies_received;
          if (on_notify) on_notify(m);
        } else if constexpr (std::is_same_v<T, net::OwnerProbe>) {
          handle_owner_probe(m);
        } else if constexpr (std::is_same_v<T, net::LocationUpdate>) {
          // Routed here, or forwarded by a node whose secondary seat covers
          // the position.
          handle_location_update(m);
        } else if constexpr (std::is_same_v<T, net::LocationUpdateAck>) {
          ++counters_.location_acks_received;
          if (on_location_ack) on_location_ack(m);
        } else if constexpr (std::is_same_v<T, net::UserHandoff>) {
          handle_user_handoff(m);
        } else if constexpr (std::is_same_v<T, net::LocateRequest>) {
          handle_locate_request(m, hops);
        } else if constexpr (std::is_same_v<T, net::LocateReply>) {
          ++counters_.locate_replies_received;
          if (on_locate) on_locate(m);
        } else {
          GEOGRID_WARN("node " << self_.id << " ignoring "
                               << net::message_name(net::message_type(msg)));
        }
      },
      msg);
}

}  // namespace geogrid::core
