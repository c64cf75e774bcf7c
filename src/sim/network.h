// Simulated point-to-point network.
//
// GeoGrid assumes fixed proxy nodes with TCP/IP connectivity; the simulation
// replaces sockets with virtual-time message delivery.  Latency follows the
// geographic-proximity assumption the paper leans on (physical distance ~
// network distance): a per-packet base cost plus a distance-proportional
// term plus bounded jitter.  The network supports the failure injection the
// dual-peer mechanism is built to survive (silent node crashes: all traffic
// to and from a down node is dropped) and accounts per-type traffic so
// benches can report management overhead.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <unordered_map>

#include "common/geometry.h"
#include "common/ids.h"
#include "common/rng.h"
#include "net/messages.h"
#include "sim/event_loop.h"

namespace geogrid::sim {

/// Anything attached to the network that can receive messages.
class Process {
 public:
  virtual ~Process() = default;

  /// Delivery upcall. `from` is the sender's address; messages from a node
  /// that crashed after sending are still delivered (they were in flight).
  virtual void on_message(NodeId from, const net::Message& msg) = 0;
};

/// Distance-proportional latency: base + per_mile * distance + U(0, jitter).
struct LatencyModel {
  double base_seconds = 0.002;
  double seconds_per_mile = 2e-5;
  double jitter_seconds = 0.001;

  Time sample(const Point& from, const Point& to, Rng& rng) const {
    return base_seconds + seconds_per_mile * distance(from, to) +
           rng.uniform(0.0, jitter_seconds);
  }
};

/// Aggregate traffic counters.
struct NetworkStats {
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_delivered = 0;
  std::uint64_t messages_dropped = 0;
  std::uint64_t bytes_sent = 0;
  /// Sent-message count per type, indexed by the raw MsgType value (wire
  /// tags are stable protocol constants).  A fixed array keeps the per-send
  /// accounting to one add with no allocation or tree walk.
  std::array<std::uint64_t, net::kMsgTypeSlots> per_type{};

  std::uint64_t count(net::MsgType type) const noexcept {
    return per_type[static_cast<std::size_t>(type)];
  }
};

/// The simulated transport.  Single-threaded; owned by the harness next to
/// the EventLoop it schedules deliveries on.
class Network {
 public:
  struct Options {
    LatencyModel latency{};
    double loss_probability = 0.0;  ///< uniform random packet loss
  };

  Network(EventLoop& loop, Rng rng, Options options)
      : loop_(loop), rng_(rng), options_(options) {}
  Network(EventLoop& loop, Rng rng) : Network(loop, rng, Options()) {}

  /// Attaches a process at a geographic coordinate.  The coordinate feeds
  /// the latency model only.
  void attach(NodeId id, Process& process, const Point& coord);

  /// Removes a process (graceful shutdown; in-flight messages to it drop).
  void detach(NodeId id);

  /// Failure injection: a down node silently loses all inbound and outbound
  /// traffic until brought back up.
  void set_up(NodeId id, bool up);
  bool is_attached(NodeId id) const;

  /// Sends `msg` from `from` to `to` with simulated latency.  The receiver
  /// gets the decode of the bytes the traffic accounting counted, which
  /// proves the protocol only relies on information that serializes.
  /// Self-sends are delivered through the loop like any other message.
  void send(NodeId from, NodeId to, const net::Message& msg);

  /// Observer of every send, in send order, before it is delivered or
  /// dropped.  Unset by default.
  std::function<void(NodeId from, NodeId to, const net::Message& msg)>
      on_send;

  const NetworkStats& stats() const noexcept { return stats_; }

  EventLoop& loop() noexcept { return loop_; }

 private:
  struct Endpoint {
    Process* process = nullptr;
    Point coord{};
    bool up = true;
  };

  EventLoop& loop_;
  Rng rng_;
  Options options_;
  NetworkStats stats_;
  std::unordered_map<NodeId, Endpoint> endpoints_;
};

}  // namespace geogrid::sim
