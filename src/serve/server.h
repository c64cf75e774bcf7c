// The serving edge: a single-threaded non-blocking TCP event loop that
// puts every engine in the repo behind the wire protocol.
//
// Everything below src/serve/ until now was a library called in-process:
// ShardedDirectory ingests spans, QueryEngine answers batches,
// NotificationEngine drains deltas — all earning their throughput from
// batching.  A network edge naively written ("read one message, call one
// engine, write one reply") would forfeit exactly that batching and
// serialize every engine behind per-message syscalls.  Server instead
// treats the event loop cycle as the batching unit:
//
//   * decoded LocationUpdates stage as LocationRecords and are applied as
//     one ShardedDirectory::apply_updates batch when a size watermark is
//     crossed, a deadline expires, or a query needs the writes visible;
//   * Locate/Range/kNN requests stage as Queries and are answered at the
//     end of every cycle — batch size adapts to the arrival rate for free
//     (whatever one cycle read).  An engine that answers on the loop
//     thread (QueryEngine::thread_count() == 1) runs the batch in slices
//     of 16 queries and sends each slice's replies before it runs the
//     next, so a client decodes early answers while the engine computes
//     later ones.  A pooled engine (T > 1) answers the batch in one
//     QueryEngine::run, since each pool dispatch wakes every parked
//     worker, and queues every reply before the cycle's write pass;
//   * every ingest flush drains the NotificationEngine once, and each
//     emitted notification is pushed as a Notify frame to the connection
//     that registered the subscription.
//
// Ordering guarantee, per connection: replies and acks appear in the order
// the requests arrived, and a query observes every update the server read
// before it (ingest always flushes before queries run).  Every slice of a
// batch answers from the same snapshot: nothing ingests between slices.
// Globally the flush boundaries define the notification epochs.
//
// Backpressure is first-class rather than accidental: when the staged
// ingest queue exceeds ServeOptions::backpressure_records the loop stops
// *reading* from contributing sockets (epoll interest dropped) until the
// next flush — TCP's own flow control then pushes back on the writers.  A
// connection whose output buffer exceeds outbuf_gate_bytes likewise stops
// being read (its requests only generate more output), and at 4x the gate
// it is closed as a dead consumer.  With a one-thread engine a reading
// client drains a batch's replies as they are sent, so only what its
// socket has not yet taken counts against the gate.  A T > 1 engine still
// queues a whole batch before sending any of it, so the gate must clear
// the largest batch's replies (bench_serve sets 16 MiB for that reason).
//
// Untrusted input: every byte from a socket goes through net::FrameDecoder
// (see net/framing.h); a malformed stream costs the peer its connection
// and increments a counter — never an exception out of the loop, never an
// overread.
//
// The loop runs on one thread started by start().  Counters and latency
// histograms are snapshotted under a mutex so tests and benches read them
// while the loop runs.  Per-type latency is measured from the read()
// syscall that delivered a message's final byte to the moment its
// reply/ack/notification batch is queued for write — it includes codec
// time, batching wait, and engine time, i.e. what a client actually sees
// minus the wire.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>

#include "core/options.h"
#include "metrics/latency.h"
#include "mobility/query_engine.h"
#include "mobility/sharded_directory.h"
#include "net/messages.h"
#include "pubsub/notification_engine.h"
#include "pubsub/subscription_index.h"

namespace geogrid::serve {

/// The engines a server fronts.  The server owns none of them — tests and
/// benches build the exact engine configuration they want to expose
/// (shard counts, thread counts, delta tracking) and keep direct access
/// for reference comparisons.  The caller must not touch the directory,
/// query engine, subscription index, or notification engine while the
/// server is running: the loop thread is their single writer.
struct ServerEngines {
  mobility::ShardedDirectory& directory;
  mobility::QueryEngine& queries;
  pubsub::SubscriptionIndex& subscriptions;
  pubsub::NotificationEngine& notifications;
};

/// Filter-string conventions mapping the wire Subscribe message onto
/// SubscriptionIndex kinds.  Shared by server, client, tests, and bench so
/// both sides of a byte-identity comparison build identical filters.
std::string friend_filter(UserId user);
std::string geofence_filter(std::uint64_t sub_id);
std::string range_filter(std::uint64_t sub_id);

struct SubscriptionSpec {
  pubsub::SubKind kind = pubsub::SubKind::kRange;
  UserId friend_user{};  ///< meaningful only for kFriend
};

/// Parses the filter: "friend:<uid>" -> kFriend tracking that user,
/// prefix "geofence" -> kGeofence, anything else -> kRange.
SubscriptionSpec subscription_spec(const net::Subscribe& msg);

class Server {
 public:
  struct Counters {
    std::uint64_t accepted = 0;
    std::uint64_t closed = 0;
    std::uint64_t frames_in = 0;
    std::uint64_t updates_in = 0;
    std::uint64_t locates_in = 0;
    std::uint64_t ranges_in = 0;
    std::uint64_t nearests_in = 0;
    std::uint64_t subscribes_in = 0;
    std::uint64_t unsubscribes_in = 0;
    std::uint64_t acks_out = 0;
    std::uint64_t replies_out = 0;
    std::uint64_t notifies_out = 0;
    std::uint64_t ingest_flushes = 0;
    std::uint64_t size_flushes = 0;      ///< watermark-triggered
    std::uint64_t deadline_flushes = 0;  ///< deadline-triggered
    std::uint64_t forced_flushes = 0;    ///< query-visibility-triggered
    std::uint64_t query_flushes = 0;
    std::uint64_t backpressure_gates = 0;  ///< read-gating events
    std::uint64_t outbuf_gates = 0;
    std::uint64_t slow_consumer_closes = 0;
    std::uint64_t malformed_frames = 0;  ///< connections cut for bad bytes
    std::uint64_t unexpected_messages = 0;
  };

  Server(ServerEngines engines, core::ServeOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds the loopback listening socket and starts the loop thread.
  /// Throws std::runtime_error when the socket cannot be set up.
  void start();

  /// Stops the loop, closes every connection, joins the thread.
  /// Idempotent.
  void stop();

  bool running() const noexcept;

  /// The bound TCP port (resolves ServeOptions::port == 0), valid after
  /// start().
  std::uint16_t port() const noexcept;

  std::size_t connection_count() const;

  Counters counters() const;

  /// Per-message-type latency (see file comment for what the interval
  /// covers).  Indexed by the wire MsgType of the *request*.
  metrics::LatencyHistogram latency(net::MsgType type) const;

  const core::ServeOptions& options() const noexcept { return options_; }

 private:
  struct Impl;  ///< all OS plumbing lives in server.cc

  core::ServeOptions options_;
  std::unique_ptr<Impl> impl_;
};

}  // namespace geogrid::serve
