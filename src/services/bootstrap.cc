#include "services/bootstrap.h"

#include <iterator>

#include "common/logging.h"

namespace geogrid::services {

BootstrapServer::BootstrapServer(sim::Network& network, NodeId address,
                                 Rng rng)
    : network_(network), address_(address), rng_(rng) {
  network_.attach(address_, *this, Point{0.0, 0.0});
}

void BootstrapServer::on_message(NodeId from, const net::Message& msg) {
  if (const auto* reg = std::get_if<net::BootstrapRegister>(&msg)) {
    nodes_[reg->node.id] = reg->node;
    return;
  }
  if (const auto* req = std::get_if<net::BootstrapEntryRequest>(&msg)) {
    net::BootstrapEntryReply reply;
    reply.entry = pick_entry(req->requester.id);
    network_.send(address_, from, reply);
    return;
  }
  GEOGRID_WARN("bootstrap server ignoring "
               << net::message_name(net::message_type(msg)) << " from "
               << from);
}

std::optional<net::NodeInfo> BootstrapServer::pick_entry(NodeId excluding) {
  if (nodes_.empty() ||
      (nodes_.size() == 1 && nodes_.contains(excluding))) {
    return std::nullopt;
  }
  // Draw until we hit a node other than the requester; bounded because at
  // least one other node exists.
  while (true) {
    auto it = nodes_.begin();
    std::advance(it, static_cast<std::ptrdiff_t>(rng_.uniform_index(nodes_.size())));
    if (it->first != excluding) return it->second;
  }
}

}  // namespace geogrid::services
