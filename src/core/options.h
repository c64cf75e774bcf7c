// Public configuration surface of the GeoGrid library.
#pragma once

#include <cstdint>
#include <string_view>

#include "common/geometry.h"
#include "loadbalance/mechanism.h"
#include "workload/capacity.h"
#include "workload/hotspot.h"

namespace geogrid::core {

/// The three system variants the paper evaluates.
enum class GridMode : std::uint8_t {
  kBasic = 0,             ///< §2.1-2.2: one owner per region, split on join
  kDualPeer = 1,          ///< §2.3: + secondary owners, capacity-aware join
  kDualPeerAdaptive = 2,  ///< §2.4: + the eight load-balance mechanisms
  /// Comparison baseline: CAN-style bootstrap — the joiner splits the
  /// region covering a uniformly *random* point instead of its own
  /// coordinate, discarding GeoGrid's geographic node-to-region mapping.
  kCanBaseline = 3,
};

std::string_view grid_mode_name(GridMode mode);

/// Configuration of one simulated GeoGrid deployment.
struct SimulationOptions {
  GridMode mode = GridMode::kDualPeerAdaptive;
  std::size_t node_count = 1000;
  workload::HotSpotField::Options field{};  ///< plane + hot-spot model
  workload::CapacityDistribution capacities =
      workload::CapacityDistribution::gnutella();
  loadbalance::PlannerConfig planner{};
  std::uint64_t seed = 1;
};

/// Configuration of the serving edge (serve::Server) — the event loop that
/// puts the engines behind real sockets.  All sizes are deliberately
/// test-tunable: the backpressure and framing tests shrink them to single
/// digits to force the rare paths deterministically.
struct ServeOptions {
  /// TCP port to listen on (loopback only).  0 = kernel-assigned
  /// ephemeral port, readable from Server::port() after start().
  std::uint16_t port = 0;

  /// Ingest batching: staged LocationUpdates are applied to the directory
  /// in one batch once this many are pending (or the deadline expires).
  std::size_t ingest_flush_records = 4096;
  /// Oldest staged update may wait at most this long before a flush.
  std::uint32_t flush_deadline_ms = 25;

  /// Backpressure watermark: once this many ingest records are staged,
  /// the loop stops reading from sockets that contribute updates until
  /// the next flush drains the queue.
  std::size_t backpressure_records = 65536;
  /// Hard ceiling on one frame's body; a peer announcing more is cut off
  /// before anything is buffered.
  std::size_t max_frame_bytes = 1u << 20;
  /// A connection whose unsent output exceeds this stops being read from
  /// (its requests would only pile up more output); at 4x this the peer
  /// is declared a dead consumer and closed.
  std::size_t outbuf_gate_bytes = 1u << 20;
};

}  // namespace geogrid::core
