// Sample protocol messages shared by the codec and framing suites: one
// instance of every message type (two where an optional field changes the
// layout), in wire-tag order.
#pragma once

#include <vector>

#include "net/messages.h"

namespace geogrid::testutil {

inline net::NodeInfo sample_node(std::uint32_t id, double capacity = 10.0) {
  net::NodeInfo n;
  n.id = NodeId{id};
  n.coord = Point{12.5, 47.25};
  n.capacity = capacity;
  return n;
}

inline net::RegionSnapshot sample_snapshot(std::uint32_t rid,
                                           bool with_secondary) {
  net::RegionSnapshot s;
  s.region = RegionId{rid};
  s.rect = Rect{16, 32, 16, 8};
  s.primary = sample_node(rid * 10, 100.0);
  if (with_secondary) s.secondary = sample_node(rid * 10 + 1, 10.0);
  s.load = 2.75;
  s.workload_index = 0.0275;
  s.split_depth = 5;
  return s;
}

/// Every message type, 48 messages in all.
inline std::vector<net::Message> every_message_type() {
  using namespace net;
  std::vector<Message> all;
  all.push_back(BootstrapRegister{sample_node(1)});
  all.push_back(BootstrapEntryRequest{sample_node(2)});
  all.push_back(BootstrapEntryReply{sample_node(3)});
  all.push_back(BootstrapEntryReply{std::nullopt});
  all.push_back(JoinRequest{sample_node(4)});
  all.push_back(JoinProbeReply{sample_snapshot(1, true),
                               {sample_snapshot(2, false),
                                sample_snapshot(3, true)}});
  all.push_back(SecondaryJoinRequest{sample_node(5), RegionId{9}});
  all.push_back(SplitJoinRequest{sample_node(6), RegionId{10}});
  {
    JoinGrant g;
    g.region_state = sample_snapshot(4, true);
    g.role = OwnerRole::kSecondary;
    g.neighbors = {sample_snapshot(5, false)};
    all.push_back(g);
  }
  all.push_back(JoinReject{"region changed"});
  all.push_back(NeighborUpdate{sample_snapshot(6, false)});
  all.push_back(NeighborRemove{RegionId{11}});
  all.push_back(LeaveNotice{RegionId{12}, true});
  all.push_back(TakeoverNotice{sample_snapshot(7, false)});
  {
    RegionHandoff h;
    h.region_state = sample_snapshot(8, true);
    h.neighbors = {sample_snapshot(9, false)};
    h.vacate = RegionId{13};
    all.push_back(h);
  }
  all.push_back(Heartbeat{RegionId{14}, 1.5, 8.5});
  all.push_back(HeartbeatAck{RegionId{15}});
  all.push_back(SyncState{RegionId{16}, 42, "replica-blob"});
  all.push_back(LoadStatsExchange{{sample_snapshot(10, true)}});
  all.push_back(StealSecondaryRequest{RegionId{17}, sample_snapshot(11, false)});
  all.push_back(StealSecondaryGrant{RegionId{18}, sample_node(7)});
  all.push_back(StealSecondaryReject{RegionId{19}});
  {
    SwitchRequest sr;
    sr.kind = SwitchKind::kPrimaryWithSecondary;
    sr.proposer_region = sample_snapshot(12, true);
    sr.proposer_neighbors = {sample_snapshot(13, false)};
    sr.target_region = RegionId{20};
    all.push_back(sr);
  }
  all.push_back(SwitchGrant{SwitchKind::kPrimaryWithPrimary, RegionId{21},
                            sample_node(8)});
  all.push_back(SwitchReject{RegionId{22}});
  {
    MergeRequest mr;
    mr.proposer_region = sample_snapshot(14, false);
    mr.proposer_neighbors = {sample_snapshot(15, true)};
    mr.target_region = RegionId{23};
    all.push_back(mr);
  }
  all.push_back(MergeGrant{sample_snapshot(16, true)});
  all.push_back(MergeReject{RegionId{24}});
  all.push_back(SplitRegionNotice{RegionId{25}, sample_snapshot(17, false),
                                  sample_snapshot(18, false)});
  {
    TtlSearchRequest t;
    t.search_id = 77;
    t.origin = sample_node(9);
    t.want = SearchWant::kPrimary;
    t.min_capacity = 100.0;
    t.max_index = 0.5;
    t.ttl = 3;
    t.depth = 2;
    all.push_back(t);
  }
  all.push_back(TtlSearchReply{88, sample_snapshot(19, true),
                               SearchWant::kSecondary});
  all.push_back(OwnerProbe{RegionId{28}, sample_node(12)});
  all.push_back(make_routed(Point{30, 40}, LocationQuery{}));
  {
    LocationQuery q;
    q.query_id = 123;
    q.focal = sample_node(10);
    q.area = Rect{20, 20, 4, 4};
    q.filter = "traffic";
    q.disseminated = true;
    all.push_back(q);
  }
  all.push_back(QueryResult{456, RegionId{26}, "payload"});
  {
    Subscribe s;
    s.sub_id = 789;
    s.subscriber = sample_node(11);
    s.area = Rect{10, 10, 2, 2};
    s.filter = "parking";
    s.duration = 1800.0;
    all.push_back(s);
  }
  all.push_back(SubscribeAck{789, RegionId{27}});
  all.push_back(Publish{Point{11, 11}, "parking", "lot A: 3 spots"});
  all.push_back(Notify{789, "parking", "lot A: 3 spots"});
  {
    Unsubscribe u;
    u.sub_id = 789;
    u.subscriber = sample_node(11);
    u.area = Rect{10, 10, 2, 2};
    u.disseminated = true;
    all.push_back(u);
  }
  {
    LocationUpdate u;
    u.user = UserId{321};
    u.location = Point{8.5, 9.25};
    u.seq = 17;
    u.prev_location = Point{8.0, 9.0};
    u.reporter = sample_node(13);
    all.push_back(u);
  }
  {
    LocationUpdate fresh;  // first report: no previous position on the wire
    fresh.user = UserId{322};
    fresh.location = Point{1.0, 2.0};
    fresh.seq = 1;
    fresh.reporter = sample_node(14);
    all.push_back(fresh);
  }
  all.push_back(LocationUpdateAck{UserId{321}, 17, RegionId{29}});
  all.push_back(UserHandoff{UserId{321}, 17, RegionId{30}});
  {
    LocateRequest lr;
    lr.request_id = 9001;
    lr.requester = sample_node(15);
    lr.user = UserId{321};
    lr.hint = Point{8.0, 9.0};
    all.push_back(lr);
  }
  {
    LocateReply reply;
    reply.request_id = 9001;
    reply.user = UserId{321};
    reply.found = true;
    reply.location = Point{8.5, 9.25};
    reply.seq = 17;
    reply.region = RegionId{29};
    reply.hops = 6;
    all.push_back(reply);
  }
  all.push_back(LocateReply{9002, UserId{999}});  // not-found reply
  {
    NearestRequest nr;
    nr.query_id = 9003;
    nr.center = Point{7.5, 8.25};
    nr.k = 16;
    all.push_back(nr);
  }

  return all;
}

}  // namespace geogrid::testutil
