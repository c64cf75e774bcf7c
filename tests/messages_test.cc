// Protocol message framing: every message type round-trips losslessly.
#include "net/messages.h"

#include <gtest/gtest.h>

#include <iterator>

#include "sample_messages.h"
#include "wire_digest.h"

namespace geogrid::net {
namespace {

using geogrid::testutil::sample_node;
using geogrid::testutil::sample_snapshot;
using geogrid::testutil::WireDigest;
using geogrid::testutil::wire_digest;

/// Lossless round-trip: re-encoding the decoded message reproduces the
/// original bytes exactly.
void expect_roundtrip(const Message& m) {
  const auto bytes = encode_message(m);
  const Message decoded = decode_message(bytes);
  EXPECT_EQ(message_type(decoded), message_type(m));
  EXPECT_EQ(encode_message(decoded), bytes)
      << "lossy round-trip for " << message_name(message_type(m));
}

TEST(Messages, EveryTypeRoundTrips) {
  const std::vector<Message> all = testutil::every_message_type();
  EXPECT_EQ(all.size(), 48u);  // every message type exercised
  for (const Message& m : all) expect_roundtrip(m);

  // Length and FNV-1a-64 digest of each message's encode_message bytes, in
  // the order of `all`.  A field reordered or re-typed on both sides still
  // round-trips above; it changes these.
  constexpr WireDigest kPinned[] = {
      {30, 0x87dd1fa28d37603full},  // BootstrapRegister
      {30, 0xb75d2225de982687ull},  // BootstrapEntryRequest
      {31, 0x8b6c7881c2838d2cull},  // BootstrapEntryReply
      {3, 0xe1f68d1870f72e62ull},  // BootstrapEntryReply
      {30, 0x690dbe805aa577b9ull},  // JoinRequest
      {305, 0x13079473fde2313cull},  // JoinProbeReply
      {34, 0xbe273bfcd7a4cc97ull},  // SecondaryJoinRequest
      {34, 0x7bfc229ba3b2051eull},  // SplitJoinRequest
      {196, 0x8e18f4384853f552ull},  // JoinGrant
      {17, 0x60f7a9bdac6ae324ull},  // JoinReject
      {84, 0xd22bfee7d8628811ull},  // NeighborUpdate
      {6, 0x3220af8617500febull},  // NeighborRemove
      {7, 0x04d45cf59e74846aull},  // LeaveNotice
      {85, 0x9a16890c16f0e3fbull},  // TakeoverNotice
      {199, 0x75149a3d76128bdaull},  // RegionHandoff
      {22, 0x1776c9ebac45a113ull},  // Heartbeat
      {6, 0xad6527b5e51d7493ull},  // HeartbeatAck
      {27, 0x19bb0e7b0e053a3full},  // SyncState
      {113, 0xa7e5f81bf1366a0eull},  // LoadStatsExchange
      {88, 0x6be97761913331f8ull},  // StealSecondaryRequest
      {34, 0xcf5838512c4fcb26ull},  // StealSecondaryGrant
      {6, 0x9fd40860440d9b33ull},  // StealSecondaryReject
      {200, 0x804330323c4e9552ull},  // SwitchRequest
      {35, 0x15b9795fa53f4011ull},  // SwitchGrant
      {6, 0xb2e743d770ff8f63ull},  // SwitchReject
      {199, 0x3035fc64fb972bd5ull},  // MergeRequest
      {112, 0x23997e341e3c2d5dull},  // MergeGrant
      {6, 0xcf9d9fd859aeea36ull},  // MergeReject
      {170, 0x59841cd4d85365e5ull},  // SplitRegionNotice
      {53, 0x21a6c4898440bc24ull},  // TtlSearchRequest
      {117, 0x5be0cd30fc4be85eull},  // TtlSearchReply
      {34, 0x2eee4607274058a0ull},  // OwnerProbe
      {93, 0xf21fdbd62b96e906ull},  // Routed
      {79, 0x78d6fa48a29cb423ull},  // LocationQuery
      {22, 0x7ce31c05444c4c04ull},  // QueryResult
      {87, 0xe03486a620a188c7ull},  // Subscribe
      {14, 0x07ded9efa225d905ull},  // SubscribeAck
      {41, 0x9e38f54967d385aaull},  // Publish
      {33, 0x3ba69d1bce450a05ull},  // Notify
      {71, 0x948fbb54cf510ea9ull},  // Unsubscribe
      {75, 0x20eea55ed408c98bull},  // LocationUpdate
      {59, 0xd09144ef751e45f2ull},  // LocationUpdate
      {18, 0x34cefeff22355d58ull},  // LocationUpdateAck
      {18, 0x6a5b888fe584db44ull},  // UserHandoff
      {58, 0xbf40dac617837c2dull},  // LocateRequest
      {45, 0xf55a9c33921103b1ull},  // LocateReply
      {45, 0xd1f45077e9e98f4aull},  // LocateReply
      {30, 0x2cf79037f36d4c6eull},  // NearestRequest
  };
  ASSERT_EQ(std::size(kPinned), all.size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(wire_digest(encode_message(all[i])), kPinned[i])
        << "wire layout of " << message_name(message_type(all[i]))
        << " (message " << i << ") changed";
  }
}

// --- Mobile-user transfer message family --------------------------------
//
// EveryTypeRoundTrips proves byte-level round-trips; these additionally pin
// each decoded *field* (mirroring codec_test.cc's subscription-family
// coverage) so a codec change that swaps two same-width fields — which
// still re-encodes identically — is caught.

template <typename M>
M field_roundtrip(const M& m) {
  Writer w;
  put(w, m);
  Reader r(w.bytes());
  M out = get<M>(r);
  EXPECT_TRUE(r.done()) << "decoder left trailing bytes";
  return out;
}

TEST(Messages, LocationUpdateFieldsRoundTrip) {
  LocationUpdate u;
  u.user = UserId{0xdeadbeef};
  u.location = Point{101.5, -7.25};
  u.seq = 0x1122334455667788ULL;
  u.prev_location = Point{100.0, -6.0};
  u.reporter = sample_node(42, 12.5);
  const LocationUpdate d = field_roundtrip(u);
  EXPECT_EQ(d.user, u.user);
  EXPECT_EQ(d.location, u.location);
  EXPECT_EQ(d.seq, u.seq);
  ASSERT_TRUE(d.prev_location.has_value());
  EXPECT_EQ(*d.prev_location, *u.prev_location);
  EXPECT_EQ(d.reporter.id, u.reporter.id);
  EXPECT_EQ(d.reporter.coord, u.reporter.coord);
  EXPECT_DOUBLE_EQ(d.reporter.capacity, u.reporter.capacity);
}

TEST(Messages, LocationUpdateFirstReportOmitsPrev) {
  LocationUpdate u;
  u.user = UserId{7};
  u.location = Point{1.0, 2.0};
  u.seq = 1;
  u.reporter = sample_node(43);
  const LocationUpdate d = field_roundtrip(u);
  EXPECT_FALSE(d.prev_location.has_value());
  // The optional field must actually be absent, not zero-encoded.
  LocationUpdate with_prev = u;
  with_prev.prev_location = Point{};
  Writer wa, wb;
  put(wa, u);
  put(wb, with_prev);
  EXPECT_EQ(wb.bytes().size(), wa.bytes().size() + 16);
}

TEST(Messages, LocationUpdateAckFieldsRoundTrip) {
  const LocationUpdateAck a{UserId{0xcafe}, 0x9876543210ULL, RegionId{314}};
  const LocationUpdateAck d = field_roundtrip(a);
  EXPECT_EQ(d.user, a.user);
  EXPECT_EQ(d.seq, a.seq);
  EXPECT_EQ(d.region, a.region);
}

TEST(Messages, UserHandoffFieldsRoundTrip) {
  // The eviction notice the old owning region receives after a migration:
  // user/seq/new_region are all same-width neighbors of the ack's fields,
  // so pin each one individually.
  const UserHandoff h{UserId{0xbeef}, 0x13579bdf02468aceULL, RegionId{628}};
  const UserHandoff d = field_roundtrip(h);
  EXPECT_EQ(d.user, h.user);
  EXPECT_EQ(d.seq, h.seq);
  EXPECT_EQ(d.new_region, h.new_region);
}

TEST(Messages, LocateRequestFieldsRoundTrip) {
  LocateRequest lr;
  lr.request_id = 0xfeed0000beefULL;
  lr.requester = sample_node(44, 99.0);
  lr.user = UserId{0x5555};
  lr.hint = Point{-3.5, 88.125};
  const LocateRequest d = field_roundtrip(lr);
  EXPECT_EQ(d.request_id, lr.request_id);
  EXPECT_EQ(d.requester.id, lr.requester.id);
  EXPECT_EQ(d.requester.coord, lr.requester.coord);
  EXPECT_DOUBLE_EQ(d.requester.capacity, lr.requester.capacity);
  EXPECT_EQ(d.user, lr.user);
  EXPECT_EQ(d.hint, lr.hint);
}

TEST(Messages, LocateReplyFieldsRoundTrip) {
  LocateReply reply;
  reply.request_id = 0x0123456789abcdefULL;
  reply.user = UserId{0xaaaa};
  reply.found = true;
  reply.location = Point{55.5, 66.75};
  reply.seq = 0xfedcba98ULL;
  reply.region = RegionId{2718};
  reply.hops = 0x1234;
  const LocateReply d = field_roundtrip(reply);
  EXPECT_EQ(d.request_id, reply.request_id);
  EXPECT_EQ(d.user, reply.user);
  EXPECT_TRUE(d.found);
  EXPECT_EQ(d.location, reply.location);
  EXPECT_EQ(d.seq, reply.seq);
  EXPECT_EQ(d.region, reply.region);
  EXPECT_EQ(d.hops, reply.hops);
}

TEST(Messages, LocateReplyNotFoundKeepsDefaults) {
  const LocateReply d = field_roundtrip(LocateReply{9002, UserId{999}});
  EXPECT_FALSE(d.found);
  EXPECT_EQ(d.seq, 0u);
  EXPECT_EQ(d.hops, 0u);
}

TEST(Messages, RegionHandoffFieldsRoundTrip) {
  RegionHandoff h;
  h.region_state = sample_snapshot(31, true);
  h.neighbors = {sample_snapshot(32, false), sample_snapshot(33, true)};
  h.vacate = RegionId{77};
  const RegionHandoff d = field_roundtrip(h);
  EXPECT_EQ(d.region_state.region, h.region_state.region);
  EXPECT_EQ(d.region_state.rect, h.region_state.rect);
  EXPECT_EQ(d.region_state.primary.id, h.region_state.primary.id);
  ASSERT_TRUE(d.region_state.secondary.has_value());
  EXPECT_EQ(d.region_state.secondary->id, h.region_state.secondary->id);
  EXPECT_DOUBLE_EQ(d.region_state.load, h.region_state.load);
  EXPECT_DOUBLE_EQ(d.region_state.workload_index,
                   h.region_state.workload_index);
  EXPECT_EQ(d.region_state.split_depth, h.region_state.split_depth);
  ASSERT_EQ(d.neighbors.size(), 2u);
  EXPECT_EQ(d.neighbors[0].region, h.neighbors[0].region);
  EXPECT_FALSE(d.neighbors[0].secondary.has_value());
  EXPECT_EQ(d.neighbors[1].region, h.neighbors[1].region);
  EXPECT_EQ(d.vacate, h.vacate);
}

// --- Load-balance / dual-peer control families --------------------------
//
// The same field-level discipline for the adaptation control plane: every
// message the planner and dual-peer protocols exchange pins each decoded
// field, so a swapped pair of same-width fields can't hide behind a
// byte-identical re-encode.

TEST(Messages, HeartbeatFamilyFieldsRoundTrip) {
  const Heartbeat hb{RegionId{41}, 3.25, 6.75};
  const Heartbeat d = field_roundtrip(hb);
  EXPECT_EQ(d.region, hb.region);
  EXPECT_DOUBLE_EQ(d.load, 3.25);
  EXPECT_DOUBLE_EQ(d.available, 6.75);

  EXPECT_EQ(field_roundtrip(HeartbeatAck{RegionId{42}}).region, RegionId{42});

  const SyncState s{RegionId{43}, 0xabcdef0123456789ULL, "subs-v2-blob"};
  const SyncState ds = field_roundtrip(s);
  EXPECT_EQ(ds.region, s.region);
  EXPECT_EQ(ds.version, s.version);
  EXPECT_EQ(ds.payload, s.payload);
}

TEST(Messages, LoadStatsExchangeFieldsRoundTrip) {
  const LoadStatsExchange ex{
      {sample_snapshot(51, true), sample_snapshot(52, false)}};
  const LoadStatsExchange d = field_roundtrip(ex);
  ASSERT_EQ(d.regions.size(), 2u);
  EXPECT_EQ(d.regions[0].region, RegionId{51});
  EXPECT_EQ(d.regions[0].rect, ex.regions[0].rect);
  EXPECT_EQ(d.regions[0].primary.id, ex.regions[0].primary.id);
  ASSERT_TRUE(d.regions[0].secondary.has_value());
  EXPECT_DOUBLE_EQ(d.regions[0].load, ex.regions[0].load);
  EXPECT_DOUBLE_EQ(d.regions[0].workload_index,
                   ex.regions[0].workload_index);
  EXPECT_EQ(d.regions[0].split_depth, ex.regions[0].split_depth);
  EXPECT_EQ(d.regions[1].region, RegionId{52});
  EXPECT_FALSE(d.regions[1].secondary.has_value());
}

TEST(Messages, StealSecondaryFamilyFieldsRoundTrip) {
  const StealSecondaryRequest req{RegionId{61}, sample_snapshot(62, true)};
  const StealSecondaryRequest dr = field_roundtrip(req);
  EXPECT_EQ(dr.victim_region, RegionId{61});
  EXPECT_EQ(dr.overloaded.region, RegionId{62});
  EXPECT_EQ(dr.overloaded.primary.id, req.overloaded.primary.id);

  const StealSecondaryGrant grant{RegionId{63}, sample_node(64, 50.0)};
  const StealSecondaryGrant dg = field_roundtrip(grant);
  EXPECT_EQ(dg.victim_region, RegionId{63});
  EXPECT_EQ(dg.stolen.id, NodeId{64});
  EXPECT_DOUBLE_EQ(dg.stolen.capacity, 50.0);

  EXPECT_EQ(field_roundtrip(StealSecondaryReject{RegionId{65}}).victim_region,
            RegionId{65});
}

TEST(Messages, SwitchFamilyFieldsRoundTrip) {
  SwitchRequest sr;
  sr.kind = SwitchKind::kPrimaryWithSecondary;
  sr.proposer_region = sample_snapshot(71, true);
  sr.proposer_neighbors = {sample_snapshot(72, false)};
  sr.target_region = RegionId{73};
  const SwitchRequest dr = field_roundtrip(sr);
  EXPECT_EQ(dr.kind, SwitchKind::kPrimaryWithSecondary);
  EXPECT_EQ(dr.proposer_region.region, RegionId{71});
  ASSERT_EQ(dr.proposer_neighbors.size(), 1u);
  EXPECT_EQ(dr.proposer_neighbors[0].region, RegionId{72});
  EXPECT_EQ(dr.target_region, RegionId{73});

  const SwitchGrant grant{SwitchKind::kPrimaryWithPrimary, RegionId{74},
                          sample_node(75)};
  const SwitchGrant dg = field_roundtrip(grant);
  EXPECT_EQ(dg.kind, SwitchKind::kPrimaryWithPrimary);
  EXPECT_EQ(dg.target_region, RegionId{74});
  EXPECT_EQ(dg.counterpart.id, NodeId{75});

  EXPECT_EQ(field_roundtrip(SwitchReject{RegionId{76}}).target_region,
            RegionId{76});
}

TEST(Messages, MergeFamilyFieldsRoundTrip) {
  MergeRequest mr;
  mr.proposer_region = sample_snapshot(81, false);
  mr.proposer_neighbors = {sample_snapshot(82, true),
                           sample_snapshot(83, false)};
  mr.target_region = RegionId{84};
  const MergeRequest dr = field_roundtrip(mr);
  EXPECT_EQ(dr.proposer_region.region, RegionId{81});
  ASSERT_EQ(dr.proposer_neighbors.size(), 2u);
  EXPECT_EQ(dr.proposer_neighbors[0].region, RegionId{82});
  EXPECT_EQ(dr.proposer_neighbors[1].region, RegionId{83});
  EXPECT_EQ(dr.target_region, RegionId{84});

  const MergeGrant dg = field_roundtrip(MergeGrant{sample_snapshot(85, true)});
  EXPECT_EQ(dg.merged.region, RegionId{85});
  ASSERT_TRUE(dg.merged.secondary.has_value());

  EXPECT_EQ(field_roundtrip(MergeReject{RegionId{86}}).target_region,
            RegionId{86});
}

TEST(Messages, SplitRegionNoticeFieldsRoundTrip) {
  const SplitRegionNotice n{RegionId{91}, sample_snapshot(92, false),
                            sample_snapshot(93, true)};
  const SplitRegionNotice d = field_roundtrip(n);
  EXPECT_EQ(d.old_region, RegionId{91});
  EXPECT_EQ(d.low.region, RegionId{92});
  EXPECT_EQ(d.high.region, RegionId{93});
  EXPECT_EQ(d.low.rect, n.low.rect);
  EXPECT_EQ(d.high.rect, n.high.rect);
}

TEST(Messages, TtlSearchFamilyFieldsRoundTrip) {
  TtlSearchRequest t;
  t.search_id = 0xfeedface;
  t.origin = sample_node(94, 200.0);
  t.want = SearchWant::kPrimary;
  t.min_capacity = 123.5;
  t.max_index = 0.125;
  t.ttl = 5;
  t.depth = 3;
  const TtlSearchRequest dt = field_roundtrip(t);
  EXPECT_EQ(dt.search_id, t.search_id);
  EXPECT_EQ(dt.origin.id, NodeId{94});
  EXPECT_EQ(dt.want, SearchWant::kPrimary);
  EXPECT_DOUBLE_EQ(dt.min_capacity, 123.5);
  EXPECT_DOUBLE_EQ(dt.max_index, 0.125);
  EXPECT_EQ(dt.ttl, 5);
  EXPECT_EQ(dt.depth, 3);

  const TtlSearchReply reply{0xcafebabe, sample_snapshot(95, true),
                             SearchWant::kSecondary};
  const TtlSearchReply dr = field_roundtrip(reply);
  EXPECT_EQ(dr.search_id, reply.search_id);
  EXPECT_EQ(dr.candidate.region, RegionId{95});
  EXPECT_EQ(dr.role, SearchWant::kSecondary);
}

TEST(Messages, OwnerProbeFieldsRoundTrip) {
  const OwnerProbe p{RegionId{96}, sample_node(97, 4.5)};
  const OwnerProbe d = field_roundtrip(p);
  EXPECT_EQ(d.region, RegionId{96});
  EXPECT_EQ(d.prober.id, NodeId{97});
  EXPECT_EQ(d.prober.coord, p.prober.coord);
  EXPECT_DOUBLE_EQ(d.prober.capacity, 4.5);
}

TEST(Messages, NearestRequestFieldsRoundTrip) {
  NearestRequest nr;
  nr.query_id = 0xabc000def;
  nr.center = Point{-12.25, 99.5};
  nr.k = 0x80000001u;  // forces the full u32 width
  const NearestRequest d = field_roundtrip(nr);
  EXPECT_EQ(d.query_id, nr.query_id);
  EXPECT_EQ(d.center, nr.center);
  EXPECT_EQ(d.k, nr.k);
}

TEST(Messages, UnknownTypeThrows) {
  Writer w;
  w.u16(0x7fff);
  EXPECT_THROW(decode_message(w.bytes()), CodecError);
}

TEST(Messages, TrailingBytesThrow) {
  auto bytes = encode_message(HeartbeatAck{RegionId{1}});
  bytes.push_back(std::byte{0});
  EXPECT_THROW(decode_message(bytes), CodecError);
}

TEST(Messages, RoutedEnvelopeWrapsInner) {
  LocationQuery q;
  q.query_id = 5;
  q.focal = sample_node(1);
  q.area = Rect{1, 2, 3, 4};
  const Routed env = make_routed(q.area.center(), q);
  EXPECT_EQ(env.target, (Point{2.5, 4.0}));
  const Message inner = unwrap_routed(env);
  ASSERT_TRUE(std::holds_alternative<LocationQuery>(inner));
  EXPECT_EQ(std::get<LocationQuery>(inner).query_id, 5u);
}

TEST(Messages, NamesAreUnique) {
  EXPECT_EQ(message_name(MsgType::kHeartbeat), "Heartbeat");
  EXPECT_EQ(message_name(MsgType::kRouted), "Routed");
  EXPECT_EQ(message_name(static_cast<MsgType>(9999)), "Unknown");
}

}  // namespace
}  // namespace geogrid::net
