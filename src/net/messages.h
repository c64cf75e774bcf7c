// GeoGrid wire protocol.
//
// The paper distinguishes two message families: management messages
// ("splitting and merging region, heart-beat, request routing,
// load-balancing, routing table maintenance") whose syntax the middleware
// defines, and application messages that must carry the geographic
// coordinates of their destination.  This header defines both families as a
// closed std::variant so node logic can handle them exhaustively.  Each
// type's wire layout is its fields() list, encoded by the rules in codec.h;
// the simulated network delivers every message through that codec, which
// proves the protocol state machines only use information that actually
// crosses the wire.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <tuple>
#include <variant>
#include <vector>

#include "common/geometry.h"
#include "common/ids.h"
#include "net/codec.h"
#include "net/node_info.h"

namespace geogrid::net {

/// Wire tag for each message type.  Values are stable protocol constants.
enum class MsgType : std::uint16_t {
  // Bootstrap service.
  kBootstrapRegister = 1,
  kBootstrapEntryRequest = 2,
  kBootstrapEntryReply = 3,
  // Join.
  kJoinRequest = 10,
  kJoinProbeReply = 11,
  kSecondaryJoinRequest = 12,
  kSplitJoinRequest = 13,
  kJoinGrant = 14,
  kJoinReject = 15,
  // Neighbor table maintenance.
  kNeighborUpdate = 20,
  kNeighborRemove = 21,
  // Departure, failure, repair.
  kLeaveNotice = 30,
  kTakeoverNotice = 31,
  kRegionHandoff = 32,
  // Heartbeats and dual-peer state sync.
  kHeartbeat = 40,
  kHeartbeatAck = 41,
  kSyncState = 42,
  // Load-balance.
  kLoadStatsExchange = 50,
  kStealSecondaryRequest = 51,
  kStealSecondaryGrant = 52,
  kStealSecondaryReject = 53,
  kSwitchRequest = 54,
  kSwitchGrant = 55,
  kSwitchReject = 56,
  kMergeRequest = 57,
  kMergeGrant = 58,
  kMergeReject = 59,
  kSplitRegionNotice = 60,
  kTtlSearchRequest = 61,
  kTtlSearchReply = 62,
  kOwnerProbe = 63,
  // Routed envelope.
  kRouted = 70,
  // Application layer.
  kLocationQuery = 80,
  kQueryResult = 81,
  kSubscribe = 82,
  kSubscribeAck = 83,
  kPublish = 84,
  kNotify = 85,
  kUnsubscribe = 86,
  // Mobile-user layer.
  kLocationUpdate = 90,
  kLocationUpdateAck = 91,
  kUserHandoff = 92,
  kLocateRequest = 93,
  kLocateReply = 94,
  kNearestRequest = 95,
};

/// Array size for counters indexed by raw MsgType value (the tags are
/// stable, dense-enough protocol constants — a 96-slot array beats a
/// node-based map on every send).
inline constexpr std::size_t kMsgTypeSlots =
    static_cast<std::size_t>(MsgType::kNearestRequest) + 1;

// ---------------------------------------------------------------------------
// Bootstrap service messages.
// ---------------------------------------------------------------------------

/// Node -> bootstrap server: register so later joiners can discover us.
struct BootstrapRegister {
  static constexpr MsgType kType = MsgType::kBootstrapRegister;
  NodeInfo node;

  static auto fields(auto& m) { return std::tie(m.node); }
};

/// Joiner -> bootstrap server: request a random entry node.
struct BootstrapEntryRequest {
  static constexpr MsgType kType = MsgType::kBootstrapEntryRequest;
  NodeInfo requester;

  static auto fields(auto& m) { return std::tie(m.requester); }
};

/// Bootstrap server -> joiner: a randomly selected existing node (absent
/// when the requester is the first node and should found the grid).
struct BootstrapEntryReply {
  static constexpr MsgType kType = MsgType::kBootstrapEntryReply;
  std::optional<NodeInfo> entry;

  static auto fields(auto& m) { return std::tie(m.entry); }
};

// ---------------------------------------------------------------------------
// Join protocol.
// ---------------------------------------------------------------------------

/// Routed toward the joiner's own coordinate; the owner of the covering
/// region answers (basic mode: splits immediately; dual-peer mode: replies
/// with a JoinProbeReply first).
struct JoinRequest {
  static constexpr MsgType kType = MsgType::kJoinRequest;
  NodeInfo joiner;

  static auto fields(auto& m) { return std::tie(m.joiner); }
};

/// Covering-region owner -> joiner: dual-peer probe result, the covering
/// region plus its neighbor regions with ownership and capacity facts.
struct JoinProbeReply {
  static constexpr MsgType kType = MsgType::kJoinProbeReply;
  RegionSnapshot covering;
  std::vector<RegionSnapshot> neighbors;

  static auto fields(auto& m) { return std::tie(m.covering, m.neighbors); }
};

/// Joiner -> primary of a half-full region: become its secondary owner.
struct SecondaryJoinRequest {
  static constexpr MsgType kType = MsgType::kSecondaryJoinRequest;
  NodeInfo joiner;
  RegionId region;

  static auto fields(auto& m) { return std::tie(m.joiner, m.region); }
};

/// Joiner -> primary of a region selected for splitting.
struct SplitJoinRequest {
  static constexpr MsgType kType = MsgType::kSplitJoinRequest;
  NodeInfo joiner;
  RegionId region;

  static auto fields(auto& m) { return std::tie(m.joiner, m.region); }
};

/// Role granted to a joining node.
enum class OwnerRole : std::uint8_t { kPrimary = 0, kSecondary = 1 };

/// Region owner -> joiner: your region (or secondary seat), with the
/// neighbor list to initialize the joiner's routing state.
struct JoinGrant {
  static constexpr MsgType kType = MsgType::kJoinGrant;
  RegionSnapshot region_state;
  OwnerRole role = OwnerRole::kPrimary;
  std::vector<RegionSnapshot> neighbors;

  static auto fields(auto& m) {
    return std::tie(m.region_state, m.role, m.neighbors);
  }
};

/// Join attempt failed (stale probe, concurrent change); joiner retries.
struct JoinReject {
  static constexpr MsgType kType = MsgType::kJoinReject;
  std::string reason;

  static auto fields(auto& m) { return std::tie(m.reason); }
};

// ---------------------------------------------------------------------------
// Neighbor table maintenance.
// ---------------------------------------------------------------------------

/// Adds or refreshes one entry of the receiver's neighbor table.
struct NeighborUpdate {
  static constexpr MsgType kType = MsgType::kNeighborUpdate;
  RegionSnapshot snapshot;

  static auto fields(auto& m) { return std::tie(m.snapshot); }
};

/// Drops one entry (region was merged away or is no longer adjacent).
struct NeighborRemove {
  static constexpr MsgType kType = MsgType::kNeighborRemove;
  RegionId region;

  static auto fields(auto& m) { return std::tie(m.region); }
};

// ---------------------------------------------------------------------------
// Departure / failure / repair.
// ---------------------------------------------------------------------------

/// Graceful goodbye from an owner of `region`.
struct LeaveNotice {
  static constexpr MsgType kType = MsgType::kLeaveNotice;
  RegionId region;
  bool was_primary = false;

  static auto fields(auto& m) { return std::tie(m.region, m.was_primary); }
};

/// New primary (activated secondary or caretaker) announces ownership.
/// Caretaker takeovers flood with a small TTL so rival claimants that
/// cannot see each other directly still learn of the winner.
struct TakeoverNotice {
  static constexpr MsgType kType = MsgType::kTakeoverNotice;
  RegionSnapshot snapshot;
  std::uint8_t flood_ttl = 0;

  static auto fields(auto& m) { return std::tie(m.snapshot, m.flood_ttl); }
};

/// Transfers a region seat to the receiver: on departure (caretaker
/// handoff), split (the peer's new half), or adaptation (stolen/switched
/// seats).  The receiver determines its role by matching its own id against
/// region_state's owners.  When `vacate` names a region, the receiver drops
/// any seat it holds there first (e.g. the secondary seat it was stolen
/// from).
struct RegionHandoff {
  static constexpr MsgType kType = MsgType::kRegionHandoff;
  RegionSnapshot region_state;
  std::vector<RegionSnapshot> neighbors;
  RegionId vacate{};  ///< seat to drop before adopting (invalid = none)

  static auto fields(auto& m) {
    return std::tie(m.region_state, m.neighbors, m.vacate);
  }
};

// ---------------------------------------------------------------------------
// Heartbeats and dual-peer synchronization.
// ---------------------------------------------------------------------------

/// Liveness probe; dual peers of one region exchange these at a higher
/// frequency than primaries of different regions (per the paper).
struct Heartbeat {
  static constexpr MsgType kType = MsgType::kHeartbeat;
  RegionId region;
  double load = 0.0;
  double available = 0.0;

  static auto fields(auto& m) {
    return std::tie(m.region, m.load, m.available);
  }
};

struct HeartbeatAck {
  static constexpr MsgType kType = MsgType::kHeartbeatAck;
  RegionId region;

  static auto fields(auto& m) { return std::tie(m.region); }
};

/// Primary -> secondary replication of application state (subscriptions and
/// published objects); `payload_bytes` models the replica size on the wire.
struct SyncState {
  static constexpr MsgType kType = MsgType::kSyncState;
  RegionId region;
  std::uint64_t version = 0;
  std::string payload;

  static auto fields(auto& m) {
    return std::tie(m.region, m.version, m.payload);
  }
};

// ---------------------------------------------------------------------------
// Load-balance protocol.
// ---------------------------------------------------------------------------

/// Periodic workload gossip: snapshots of every region the sender owns.
struct LoadStatsExchange {
  static constexpr MsgType kType = MsgType::kLoadStatsExchange;
  std::vector<RegionSnapshot> regions;

  static auto fields(auto& m) { return std::tie(m.regions); }
};

/// Overloaded primary -> primary of `victim_region`: release your secondary
/// so it can take over my overloaded region (mechanisms a and f).
struct StealSecondaryRequest {
  static constexpr MsgType kType = MsgType::kStealSecondaryRequest;
  RegionId victim_region;
  RegionSnapshot overloaded;

  static auto fields(auto& m) {
    return std::tie(m.victim_region, m.overloaded);
  }
};

struct StealSecondaryGrant {
  static constexpr MsgType kType = MsgType::kStealSecondaryGrant;
  RegionId victim_region;
  NodeInfo stolen;

  static auto fields(auto& m) { return std::tie(m.victim_region, m.stolen); }
};

struct StealSecondaryReject {
  static constexpr MsgType kType = MsgType::kStealSecondaryReject;
  RegionId victim_region;

  static auto fields(auto& m) { return std::tie(m.victim_region); }
};

/// What a switch proposal swaps.
enum class SwitchKind : std::uint8_t {
  kPrimaryWithPrimary = 0,    ///< mechanisms (b) and (h)
  kPrimaryWithSecondary = 1,  ///< mechanisms (e) and (g)
};

/// Proposal to swap owner seats between the proposer's region and
/// `target_region` owned by the receiver.
struct SwitchRequest {
  static constexpr MsgType kType = MsgType::kSwitchRequest;
  SwitchKind kind = SwitchKind::kPrimaryWithPrimary;
  RegionSnapshot proposer_region;
  /// Neighbor table of the proposer's region, so a granting counterpart can
  /// adopt the region without a second round-trip.
  std::vector<RegionSnapshot> proposer_neighbors;
  RegionId target_region;

  static auto fields(auto& m) {
    return std::tie(m.kind, m.proposer_region, m.proposer_neighbors,
                    m.target_region);
  }
};

struct SwitchGrant {
  static constexpr MsgType kType = MsgType::kSwitchGrant;
  SwitchKind kind = SwitchKind::kPrimaryWithPrimary;
  RegionId target_region;
  NodeInfo counterpart;  ///< the node moving into the proposer's region

  static auto fields(auto& m) {
    return std::tie(m.kind, m.target_region, m.counterpart);
  }
};

struct SwitchReject {
  static constexpr MsgType kType = MsgType::kSwitchReject;
  RegionId target_region;

  static auto fields(auto& m) { return std::tie(m.target_region); }
};

/// Proposal to merge the proposer's region into the receiver's adjacent
/// region (mechanism c); on grant the receiver owns the union.
struct MergeRequest {
  static constexpr MsgType kType = MsgType::kMergeRequest;
  RegionSnapshot proposer_region;
  /// Proposer's neighbor table; the merged region inherits the adjacent
  /// subset.
  std::vector<RegionSnapshot> proposer_neighbors;
  RegionId target_region;

  static auto fields(auto& m) {
    return std::tie(m.proposer_region, m.proposer_neighbors, m.target_region);
  }
};

struct MergeGrant {
  static constexpr MsgType kType = MsgType::kMergeGrant;
  RegionSnapshot merged;  ///< the union region under the receiver

  static auto fields(auto& m) { return std::tie(m.merged); }
};

struct MergeReject {
  static constexpr MsgType kType = MsgType::kMergeReject;
  RegionId target_region;

  static auto fields(auto& m) { return std::tie(m.target_region); }
};

/// After a load-balance split (mechanism d): old region replaced by two.
struct SplitRegionNotice {
  static constexpr MsgType kType = MsgType::kSplitRegionNotice;
  RegionId old_region;
  RegionSnapshot low;
  RegionSnapshot high;

  static auto fields(auto& m) { return std::tie(m.old_region, m.low, m.high); }
};

/// What the TTL-guided remote search is looking for.
enum class SearchWant : std::uint8_t {
  kSecondary = 0,  ///< a remote secondary owner (mechanisms f, g)
  kPrimary = 1,    ///< a remote primary owner (mechanism h)
};

/// TTL-guided flood over neighbor links for a remote candidate stronger
/// than `min_capacity` and with workload index below `max_index`.
struct TtlSearchRequest {
  static constexpr MsgType kType = MsgType::kTtlSearchRequest;
  std::uint32_t search_id = 0;
  NodeInfo origin;
  SearchWant want = SearchWant::kSecondary;
  double min_capacity = 0.0;
  double max_index = 0.0;
  std::uint8_t ttl = 0;    ///< maximum graph depth of the flood
  std::uint8_t depth = 0;  ///< hops traveled; replies come from depth >= 2

  static auto fields(auto& m) {
    return std::tie(m.search_id, m.origin, m.want, m.min_capacity, m.max_index,
                    m.ttl, m.depth);
  }
};

struct TtlSearchReply {
  static constexpr MsgType kType = MsgType::kTtlSearchReply;
  std::uint32_t search_id = 0;
  RegionSnapshot candidate;
  SearchWant role = SearchWant::kSecondary;

  static auto fields(auto& m) {
    return std::tie(m.search_id, m.candidate, m.role);
  }
};

/// Liveness probe for a suspected-dead region, routed to the region's last
/// known center.  Whoever covers that point replies to the prober: with a
/// NeighborUpdate of its region (refuting the suspicion or correcting a
/// stale rectangle), plus a NeighborRemove when the probed region id no
/// longer exists.  No reply at all means the area is orphaned and the
/// prober may adopt it.
struct OwnerProbe {
  static constexpr MsgType kType = MsgType::kOwnerProbe;
  RegionId region;      ///< the suspect region
  NodeInfo prober;      ///< where to send the verdict

  static auto fields(auto& m) { return std::tie(m.region, m.prober); }
};

// ---------------------------------------------------------------------------
// Routed envelope.
// ---------------------------------------------------------------------------

/// Carrier for any message that must travel to the region covering `target`
/// via greedy geographic forwarding.  The inner message stays encoded while
/// in transit (intermediate hops never inspect it).
struct Routed {
  static constexpr MsgType kType = MsgType::kRouted;
  Point target;
  std::uint16_t hops = 0;
  std::vector<std::byte> inner;

  static auto fields(auto& m) { return std::tie(m.target, m.hops, m.inner); }
};

// ---------------------------------------------------------------------------
// Application layer.
// ---------------------------------------------------------------------------

/// A location query: spatial region, filter condition, focal node (the
/// paper's example: "Inform me of the traffic around Exit 89 on I-85").
struct LocationQuery {
  static constexpr MsgType kType = MsgType::kLocationQuery;
  std::uint64_t query_id = 0;
  NodeInfo focal;
  Rect area;
  std::string filter;
  bool disseminated = false;  ///< set once the executor fans it out

  static auto fields(auto& m) {
    return std::tie(m.query_id, m.focal, m.area, m.filter, m.disseminated);
  }
};

struct QueryResult {
  static constexpr MsgType kType = MsgType::kQueryResult;
  std::uint64_t query_id = 0;
  RegionId from_region;
  std::string payload;

  static auto fields(auto& m) {
    return std::tie(m.query_id, m.from_region, m.payload);
  }
};

/// Write-only twin of QueryResult whose payload is the encoding of a `T`
/// (anything with encode(sink)), written straight into the frame.  It has
/// QueryResult's field list and tag, so its bytes are those of a
/// QueryResult holding that encoding in `payload`, without the string.
template <typename T>
struct QueryResultOf {
  static constexpr MsgType kType = QueryResult::kType;
  std::uint64_t query_id = 0;
  RegionId from_region;
  EncodedBlob<T> payload;

  static auto fields(auto& m) { return QueryResult::fields(m); }
};

/// Standing continuous query over an area, active for `duration` seconds.
struct Subscribe {
  static constexpr MsgType kType = MsgType::kSubscribe;
  std::uint64_t sub_id = 0;
  NodeInfo subscriber;
  Rect area;
  std::string filter;
  double duration = 0.0;
  bool disseminated = false;

  static auto fields(auto& m) {
    return std::tie(m.sub_id, m.subscriber, m.area, m.filter, m.duration,
                    m.disseminated);
  }
};

struct SubscribeAck {
  static constexpr MsgType kType = MsgType::kSubscribeAck;
  std::uint64_t sub_id = 0;
  RegionId region;

  static auto fields(auto& m) { return std::tie(m.sub_id, m.region); }
};

/// An information source publishes a located datum (camera frame summary,
/// parking-lot occupancy, ...). Routed to the covering region and matched
/// against stored subscriptions there.
struct Publish {
  static constexpr MsgType kType = MsgType::kPublish;
  Point location;
  std::string topic;
  std::string payload;

  static auto fields(auto& m) {
    return std::tie(m.location, m.topic, m.payload);
  }
};

struct Notify {
  static constexpr MsgType kType = MsgType::kNotify;
  std::uint64_t sub_id = 0;
  std::string topic;
  std::string payload;

  static auto fields(auto& m) { return std::tie(m.sub_id, m.topic, m.payload); }
};

/// Cancels a standing subscription before its duration expires.  Carries
/// the original area so it can be routed and disseminated to exactly the
/// regions that stored the subscription.
struct Unsubscribe {
  static constexpr MsgType kType = MsgType::kUnsubscribe;
  std::uint64_t sub_id = 0;
  NodeInfo subscriber;
  Rect area;
  bool disseminated = false;

  static auto fields(auto& m) {
    return std::tie(m.sub_id, m.subscriber, m.area, m.disseminated);
  }
};

// ---------------------------------------------------------------------------
// Mobile-user layer.
// ---------------------------------------------------------------------------

/// Timestamped location report from a mobile user, forwarded by its access
/// proxy and routed to the region covering the new position.  `seq` is a
/// per-user monotonic counter so reordered or replayed reports cannot roll a
/// record backwards.  When `prev_location` is set the previous report's
/// position travels along: the ingesting owner uses it to (a) suppress
/// duplicate subscription notifications while the user wanders inside one
/// subscribed area and (b) evict the stale record from the old owning region
/// when the movement crossed a region boundary.
struct LocationUpdate {
  static constexpr MsgType kType = MsgType::kLocationUpdate;
  UserId user{};
  Point location{};
  std::uint64_t seq = 0;
  std::optional<Point> prev_location{};
  NodeInfo reporter{};  ///< access proxy to acknowledge

  static auto fields(auto& m) {
    return std::tie(m.user, m.location, m.seq, m.prev_location, m.reporter);
  }
};

/// Owner -> access proxy: the update was ingested into `region`.
struct LocationUpdateAck {
  static constexpr MsgType kType = MsgType::kLocationUpdateAck;
  UserId user{};
  std::uint64_t seq = 0;
  RegionId region{};

  static auto fields(auto& m) { return std::tie(m.user, m.seq, m.region); }
};

/// New owning region -> old owning region (routed toward the user's previous
/// position): the user moved into `new_region`; drop any record with
/// sequence <= `seq`.  The record itself travels with the LocationUpdate, so
/// the handoff is an eviction notice, not a data transfer.
struct UserHandoff {
  static constexpr MsgType kType = MsgType::kUserHandoff;
  UserId user{};
  std::uint64_t seq = 0;
  RegionId new_region{};

  static auto fields(auto& m) { return std::tie(m.user, m.seq, m.new_region); }
};

/// Point lookup for a user, routed toward `hint` (the requester's last known
/// position for the user).  Whoever covers the hint answers from its
/// location store.
struct LocateRequest {
  static constexpr MsgType kType = MsgType::kLocateRequest;
  std::uint64_t request_id = 0;
  NodeInfo requester{};
  UserId user{};
  Point hint{};

  static auto fields(auto& m) {
    return std::tie(m.request_id, m.requester, m.user, m.hint);
  }
};

struct LocateReply {
  static constexpr MsgType kType = MsgType::kLocateReply;
  std::uint64_t request_id = 0;
  UserId user{};
  bool found = false;
  Point location{};
  std::uint64_t seq = 0;
  RegionId region{};
  std::uint16_t hops = 0;  ///< routed hops the request took to the owner

  static auto fields(auto& m) {
    return std::tie(m.request_id, m.user, m.found, m.location, m.seq, m.region,
                    m.hops);
  }
};

/// k-nearest-neighbour query from a serving-edge client: the `k` users
/// closest to `center`.  Answered with a QueryResult whose payload is the
/// canonical mobility::QueryResult encoding (kind tag + records), the same
/// bytes the in-process engine serializes — which is what lets the loopback
/// bench byte-compare wire streams against engine output.
struct NearestRequest {
  static constexpr MsgType kType = MsgType::kNearestRequest;
  std::uint64_t query_id = 0;
  Point center{};
  std::uint32_t k = 0;

  static auto fields(auto& m) { return std::tie(m.query_id, m.center, m.k); }
};

// ---------------------------------------------------------------------------
// Envelope variant + framing.
// ---------------------------------------------------------------------------

using Message = std::variant<
    BootstrapRegister, BootstrapEntryRequest, BootstrapEntryReply,
    JoinRequest, JoinProbeReply, SecondaryJoinRequest, SplitJoinRequest,
    JoinGrant, JoinReject, NeighborUpdate, NeighborRemove, LeaveNotice,
    TakeoverNotice, RegionHandoff, Heartbeat, HeartbeatAck, SyncState,
    LoadStatsExchange, StealSecondaryRequest, StealSecondaryGrant,
    StealSecondaryReject, SwitchRequest, SwitchGrant, SwitchReject,
    MergeRequest, MergeGrant, MergeReject, SplitRegionNotice,
    TtlSearchRequest, TtlSearchReply, OwnerProbe, Routed, LocationQuery,
    QueryResult, Subscribe, SubscribeAck, Publish, Notify, Unsubscribe,
    LocationUpdate, LocationUpdateAck, UserHandoff, LocateRequest,
    LocateReply, NearestRequest>;

/// A concrete message type: a wire tag and a field list.
template <typename M>
concept WireMessage = detail::Described<M> && requires { M::kType; };

/// Writes one message body, [u16 type][fields], to any sink; inlined like
/// put().
template <typename Sink, WireMessage M>
[[gnu::always_inline]] inline void put_message(Sink& sink, const M& m) {
  put(sink, M::kType);
  put(sink, m);
}

/// Size of one message body in bytes, counted from its field list.
template <WireMessage M>
std::size_t message_size(const M& m) {
  SizeCounter n;
  put_message(n, m);
  return n.size();
}

/// Wire tag of a message held in the variant.
MsgType message_type(const Message& m);

/// Human-readable name of the message type (for traces and stats).
std::string_view message_name(MsgType type);

/// Frames a message as [u16 type][payload]: sizes it, then writes it
/// into one exactly sized vector.
std::vector<std::byte> encode_message(const Message& m);

/// Parses a framed message; throws CodecError on malformed input.
Message decode_message(const std::byte* data, std::size_t size);
Message decode_message(const std::vector<std::byte>& bytes);

/// Fixed per-packet overhead added to each encoded message in the traffic
/// accounting; it stands in for UDP/IP headers.
inline constexpr std::size_t kPacketOverheadBytes = 28;

/// Wraps a message into a Routed envelope addressed at `target`.
Routed make_routed(const Point& target, const Message& inner);

/// Unwraps the inner message of a Routed envelope.
Message unwrap_routed(const Routed& r);

}  // namespace geogrid::net
