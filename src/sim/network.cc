#include "sim/network.h"

#include <cassert>
#include <memory>

#include "common/logging.h"

namespace geogrid::sim {

void Network::attach(NodeId id, Process& process, const Point& coord) {
  assert(id.valid());
  endpoints_[id] = Endpoint{&process, coord, true};
}

void Network::detach(NodeId id) { endpoints_.erase(id); }

void Network::set_up(NodeId id, bool up) {
  if (auto it = endpoints_.find(id); it != endpoints_.end()) {
    it->second.up = up;
  }
}

bool Network::is_attached(NodeId id) const {
  return endpoints_.contains(id);
}

void Network::send(NodeId from, NodeId to, const net::Message& msg) {
  if (on_send) on_send(from, to, msg);
  ++stats_.messages_sent;
  const auto type = net::message_type(msg);
  ++stats_.per_type[static_cast<std::size_t>(type)];

  const auto src = endpoints_.find(from);
  const auto dst = endpoints_.find(to);
  if (src == endpoints_.end() || !src->second.up || dst == endpoints_.end()) {
    ++stats_.messages_dropped;
    return;
  }
  if (options_.loss_probability > 0.0 && rng_.chance(options_.loss_probability)) {
    ++stats_.messages_dropped;
    return;
  }

  // Encode once: the bytes are both what the accounting counts and what
  // the receiver decodes (outside the delivery closure, so a malformed
  // encoding surfaces at send time with the sender on the stack).
  const std::vector<std::byte> bytes = net::encode_message(msg);
  stats_.bytes_sent += bytes.size() + net::kPacketOverheadBytes;
  auto payload = std::make_shared<net::Message>(net::decode_message(bytes));

  const Time latency =
      options_.latency.sample(src->second.coord, dst->second.coord, rng_);

  // Deliveries are one-shot and never cancelled (a crashed receiver is
  // checked at fire time), so skip the cancellation-handle allocation.
  loop_.schedule_fire_and_forget(latency, [this, from, to, payload] {
    auto it = endpoints_.find(to);
    if (it == endpoints_.end() || !it->second.up) {
      ++stats_.messages_dropped;
      return;
    }
    ++stats_.messages_delivered;
    GEOGRID_TRACE("deliver " << net::message_name(net::message_type(*payload))
                             << ' ' << from << " -> " << to << " @"
                             << loop_.now());
    it->second.process->on_message(from, *payload);
  });
}

}  // namespace geogrid::sim
