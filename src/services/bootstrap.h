// Bootstrap directory service.
//
// The paper's bootstrap step: "node p obtains a list of existing nodes in
// GeoGrid from a bootstrapping server or a local host cache carried from its
// last session of activity", then "initiates a joining request by contacting
// an entry node selected randomly from this list".  BootstrapServer is that
// server as a simulated process.  There is no host cache: a departed node
// never rejoins, so no node has an earlier session to carry one from.
#pragma once

#include <optional>
#include <unordered_map>

#include "common/rng.h"
#include "net/messages.h"
#include "sim/network.h"

namespace geogrid::services {

/// Central directory of live nodes; answers BootstrapEntryRequest with one
/// uniformly random registered node (excluding the requester itself).
class BootstrapServer : public sim::Process {
 public:
  BootstrapServer(sim::Network& network, NodeId address, Rng rng);

  NodeId address() const noexcept { return address_; }
  std::size_t registered() const noexcept { return nodes_.size(); }

  /// Removes a node (used when the harness kills or retires a node).
  void unregister(NodeId id) { nodes_.erase(id); }

  void on_message(NodeId from, const net::Message& msg) override;

  /// Direct (non-message) entry selection for engine-mode callers.
  std::optional<net::NodeInfo> pick_entry(NodeId excluding);

 private:
  sim::Network& network_;
  NodeId address_;
  Rng rng_;
  std::unordered_map<NodeId, net::NodeInfo> nodes_;
};

}  // namespace geogrid::services
