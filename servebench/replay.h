// In-process replay of a served run.
//
// A Replay regenerates the run's rounds from the seed and performs, call
// for call, what the server and its clients did for them: the client's
// request framing, the server's frame decoding, the engine calls of each
// ingest flush and query batch, and the ack/reply/Notify framing into
// per-connection buffers.  Its answers (a digest of every round's replies
// and notification stream), its work counts and its final directory image
// must equal the served run's.  Traced, every public call of a timed round
// also becomes a child span of that round, with its clock time and
// allocation counts, and the engines' counters give the layer ratios.
//
// The framing and reply loops here are copies of serve::Client's and
// serve::Server's (README.md names the lines each copies): a change to
// those loops must be made here too, or the net.* spans time old code and
// the digest and wire-byte checks fail.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/engine.h"
#include "mobility/query_engine.h"
#include "mobility/sharded_directory.h"
#include "net/framing.h"
#include "net/messages.h"
#include "probes.h"
#include "pubsub/notification_engine.h"
#include "pubsub/subscription_index.h"
#include "workload.h"

namespace servebench {

/// The engines a server fronts, in the serial configuration (K=1 shard,
/// one query thread, one match thread) that the served run and the replay
/// share.  README.md gives the measurement behind choosing it.
struct Stack {
  Stack(const overlay::Partition& partition, double cell_size);
  mobility::ShardedDirectory directory;
  mobility::QueryEngine queries;
  pubsub::SubscriptionIndex subscriptions;
  pubsub::NotificationEngine notifications;
};

/// The Subscribe message the subscriber sends for `order`.
net::Subscribe subscribe_message(const SubOrder& order);

/// Work a run did in its timed rounds.  Served and replayed counts must be
/// equal for the run to pass.
struct Counts {
  std::uint64_t rounds = 0;
  std::uint64_t reports = 0;
  std::uint64_t ingest_flushes = 0;
  std::uint64_t replies = 0;  ///< fences and queries answered
  std::uint64_t records = 0;  ///< records in replies (a found locate is 1)
  std::uint64_t notifications = 0;
  std::uint64_t wire_bytes = 0;  ///< every frame, both directions
  friend bool operator==(const Counts&, const Counts&) = default;
};

/// A run's answers, one digest per round over warm-up and timed rounds
/// alike: the round's replies in send order, then its notification stream.
struct RoundDigest {
  std::uint64_t replies = 0;
  std::uint64_t notifications = 0;
  void reply(const mobility::QueryResult& r);
  void notify(const net::Notify& n);
  std::uint64_t value() const;
};

std::uint64_t records_in(const mobility::QueryResult& r);
/// The engine answer a LocateReply carries, rebuilt as serve::Client does.
mobility::QueryResult locate_result(const net::LocateReply& reply);

struct Metric {
  std::string name;
  double value = 0.0;
  const char* unit = "";
  /// False for metrics only some workloads have: printed, but kept out of
  /// the result object, whose metric set is the same for every workload.
  bool in_result = true;
};
using Metrics = std::vector<Metric>;

class Replay {
 public:
  /// `spans` null: untraced.  The replay shares `sim`'s partition.
  Replay(const Spec& spec, std::uint64_t seed, core::GridSimulation& sim,
         SpanLog* spans);

  /// The population load and the subscription set, as served set-up sent
  /// them (one ingest flush and drain per load batch).
  void setup();
  /// Replays the next round; `timed` rounds add to counts() and, when
  /// traced, record spans under the round's number.
  void round(bool timed);
  /// Snapshots the engines' counters; call before the first timed round.
  void begin_timed();

  const Counts& counts() const noexcept { return counts_; }
  const std::vector<std::uint64_t>& answers() const noexcept {
    return answers_;
  }
  Stack& stack() noexcept { return stack_; }

  /// Per-layer metrics from the spans and the engines' counter deltas
  /// since begin_timed().  Traced replays only.
  void layer_metrics(Metrics& out) const;
  /// Sum of the engine spans (apply, publish, drain, query) over the timed
  /// rounds.  Traced replays only.
  double engine_us() const;

 private:
  /// A connection's reply stream, as the server queues it: cleared each
  /// round, capacity kept.
  struct Conn {
    std::vector<std::byte> out;
  };

  void update_subround(std::uint64_t id, bool timed);
  void query_subround(std::uint64_t id, bool timed);
  void subscriber_fence(std::uint64_t id, bool timed);
  /// The updater's or subscriber's fence: one locate and its reply.
  void fence(std::uint64_t id, bool timed, Conn& conn, UserId user);
  /// Client-side framing of the messages `each` emits, into one fresh
  /// buffer as serve::Client does, followed by the server's decode of it.
  /// Returns the framed bytes.
  template <typename EachMessage>
  std::uint64_t frame(std::uint64_t id, bool timed, std::size_t frames,
                      EachMessage&& each);
  /// The server's decode of request_bytes_ into staged_/staged_queries_.
  void decode_requests(std::uint64_t id, bool timed);
  /// The client's decode of one connection's reply stream.
  void decode_replies(std::uint64_t id, bool timed, const Conn& conn);
  std::vector<mobility::QueryResult> run_queries(
      std::uint64_t id, bool timed, std::span<const mobility::Query> batch);
  void queue(Conn& conn, const net::Message& m);
  void locate_reply(Conn& conn, UserId user, const mobility::QueryResult& r);
  void answer(const mobility::QueryResult& r, bool timed);
  /// Where a call's span goes: nowhere for untimed rounds or untraced
  /// replays.
  SpanLog* log(bool timed) const noexcept { return timed ? spans_ : nullptr; }

  const Spec& spec_;
  Generator gen_;
  Stack stack_;
  SpanLog* spans_;
  Round rd_;
  Counts counts_;
  std::vector<std::uint64_t> answers_;
  RoundDigest digest_;

  std::vector<Conn> updaters_;
  Conn querier_;
  Conn subscriber_;
  net::Notify notify_;

  // Codec emulation.
  std::vector<std::byte> request_bytes_;  ///< last framed request batch
  net::FrameDecoder server_decoder_;
  net::FrameDecoder client_decoder_;
  std::vector<mobility::LocationRecord> staged_;
  std::vector<mobility::Query> staged_queries_;
  std::vector<net::Notify> notifies_;
  std::vector<mobility::QueryResult> decoded_;

  // Traced-run tallies over the timed rounds.
  std::uint64_t ranges_ = 0;
  std::uint64_t range_records_ = 0;
  std::uint64_t range_regions_ = 0;
  std::vector<RegionId> regions_;
  double subscribe_us_ = 0.0;
  std::uint64_t subscribed_ = 0;
  mobility::ShardedDirectory::Counters dir0_{};
  mobility::QueryEngine::Counters query0_{};
  pubsub::NotificationEngine::Counters notify0_{};
  std::uint64_t match_samples0_ = 0;
  double match_us0_ = 0.0;
};

}  // namespace servebench
