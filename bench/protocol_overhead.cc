// Protocol overhead (ours): the wire cost of operating a GeoGrid — what
// the paper's prototype discussion calls the management messages
// ("splitting and merging region, heart-beat, request routing,
// load-balancing, routing table maintenance").
//
// Runs a protocol-mode deployment end to end — staggered joins, hot-spot
// load, adaptation handshakes, a query workload — and breaks the traffic
// down per message family and per node-minute.  It also demonstrates that
// the wire-level adaptation converges the same way the engine does.
#include <cstdio>
#include <map>

#include "bench_util.h"
#include "common/stats.h"
#include "core/cluster.h"

using namespace geogrid;

namespace {

const char* family_of(net::MsgType type) {
  using T = net::MsgType;
  switch (type) {
    case T::kBootstrapRegister:
    case T::kBootstrapEntryRequest:
    case T::kBootstrapEntryReply:
    case T::kJoinRequest:
    case T::kJoinProbeReply:
    case T::kSecondaryJoinRequest:
    case T::kSplitJoinRequest:
    case T::kJoinGrant:
    case T::kJoinReject:
      return "join";
    case T::kNeighborUpdate:
    case T::kNeighborRemove:
    case T::kLeaveNotice:
    case T::kTakeoverNotice:
    case T::kRegionHandoff:
      return "membership";
    case T::kHeartbeat:
    case T::kHeartbeatAck:
    case T::kSyncState:
      return "heartbeat/sync";
    case T::kLoadStatsExchange:
      return "load-gossip";
    case T::kStealSecondaryRequest:
    case T::kStealSecondaryGrant:
    case T::kStealSecondaryReject:
    case T::kSwitchRequest:
    case T::kSwitchGrant:
    case T::kSwitchReject:
    case T::kMergeRequest:
    case T::kMergeGrant:
    case T::kMergeReject:
    case T::kSplitRegionNotice:
    case T::kTtlSearchRequest:
    case T::kTtlSearchReply:
      return "adaptation";
    case T::kOwnerProbe:
      return "membership";
    case T::kRouted:
    case T::kLocationQuery:
    case T::kQueryResult:
    case T::kSubscribe:
    case T::kSubscribeAck:
    case T::kPublish:
    case T::kNotify:
    case T::kUnsubscribe:
      return "application";
    case T::kLocationUpdate:
    case T::kLocationUpdateAck:
    case T::kUserHandoff:
    case T::kLocateRequest:
    case T::kLocateReply:
    case T::kNearestRequest:
      return "mobile-user";
  }
  return "other";
}

double cluster_imbalance(core::Cluster& cluster) {
  RunningStats rs;
  for (const auto& node : cluster.nodes()) {
    if (node->joined()) rs.add(node->workload_index());
  }
  return rs.stddev();
}

}  // namespace

int main() {
  constexpr std::size_t kNodes = 80;
  constexpr double kRunSeconds = 240.0;

  core::Cluster::Options opt;
  opt.node.mode = core::GridMode::kDualPeerAdaptive;
  opt.seed = 4242;
  core::Cluster cluster(opt);

  std::printf("Protocol overhead: %zu-node wire-protocol deployment, %.0f "
              "virtual seconds\n",
              kNodes, kRunSeconds);

  for (std::size_t i = 0; i < kNodes; ++i) cluster.spawn();
  cluster.run_until_joined();
  cluster.run_for(10.0);

  Rng field_rng(99);
  workload::HotSpotField::Options fopt;
  fopt.hotspot_count = 6;
  workload::HotSpotField field(fopt, field_rng);

  cluster.apply_field(field);
  const double imbalance_before = cluster_imbalance(cluster);

  // Steady state: loads refresh, hot spots drift, queries flow.
  Rng query_rng(7);
  for (int second = 0; second < static_cast<int>(kRunSeconds); ++second) {
    cluster.apply_field(field);
    if (second % 30 == 29) field.migrate(field_rng, 2);
    if (second % 4 == 0) {
      auto& issuer =
          *cluster.nodes()[query_rng.uniform_index(cluster.nodes().size())];
      const Point c = field.sample_weighted_point(query_rng);
      const Rect area{std::max(0.0, c.x - 1.0), std::max(0.0, c.y - 1.0),
                      2.0, 2.0};
      issuer.submit_query(area, "traffic");
    }
    cluster.run_for(1.0);
  }
  // Settle window: let adaptation catch up with the last migration before
  // measuring (matching the engine benches, which measure at round ends).
  for (int second = 0; second < 60; ++second) {
    cluster.apply_field(field);
    cluster.run_for(1.0);
  }
  cluster.apply_field(field);
  const double imbalance_after = cluster_imbalance(cluster);

  const auto& stats = cluster.network().stats();
  std::map<std::string, std::uint64_t> per_family;
  for (std::size_t t = 0; t < stats.per_type.size(); ++t) {
    if (stats.per_type[t] == 0) continue;
    per_family[family_of(static_cast<net::MsgType>(t))] += stats.per_type[t];
  }

  auto csv = bench::csv_for("protocol_overhead");
  if (csv) csv->header({"family", "messages", "msgs_per_node_minute"});
  const double node_minutes =
      static_cast<double>(kNodes) * kRunSeconds / 60.0;
  std::printf("\n%-16s %12s %22s\n", "family", "messages", "msgs/node/min");
  for (const auto& [family, count] : per_family) {
    std::printf("%-16s %12llu %22.1f\n", family.c_str(),
                static_cast<unsigned long long>(count),
                static_cast<double>(count) / node_minutes);
    if (csv) {
      csv->row(family, count, static_cast<double>(count) / node_minutes);
    }
  }
  std::printf("\ntotal %llu messages, %.2f MB on the wire, %llu dropped\n",
              static_cast<unsigned long long>(stats.messages_sent),
              static_cast<double>(stats.bytes_sent) / 1e6,
              static_cast<unsigned long long>(stats.messages_dropped));

  std::uint64_t started = 0, completed = 0, hop_limit = 0, no_route = 0;
  for (const auto& node : cluster.nodes()) {
    started += node->counters().adaptations_started;
    completed += node->counters().adaptations_completed;
    hop_limit += node->counters().routes_dropped_hop_limit;
    no_route += node->counters().routes_dropped_no_route;
  }
  std::printf("adaptations: %llu started, %llu completed over the wire\n",
              static_cast<unsigned long long>(started),
              static_cast<unsigned long long>(completed));
  std::printf("routed messages dropped: %llu at the hop limit, %llu with no "
              "route\n",
              static_cast<unsigned long long>(hop_limit),
              static_cast<unsigned long long>(no_route));
  std::printf("workload imbalance (stddev): %.5f -> %.5f\n",
              imbalance_before, imbalance_after);
  const auto errors = cluster.check_consistency();
  std::printf("consistency violations: %zu\n", errors.size());
  for (const auto& e : errors) std::printf("  %s\n", e.c_str());
  return errors.empty() ? 0 : 1;
}
