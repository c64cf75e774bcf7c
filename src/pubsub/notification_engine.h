// Incremental notification engine: per-epoch ingest deltas matched against
// standing subscriptions.
//
// The re-query world answers "who should be notified this tick" by running
// every standing subscription as a fresh range query — O(S x query) per
// epoch even when almost nobody moved.  NotificationEngine inverts the
// join: each drain() publishes the directory's snapshot, takes the set of
// users whose record changed since the previously drained epoch (the
// ingest delta the snapshot carries), and matches only those users
// against the SubscriptionIndex.  Work per epoch is O(moved users x
// covering subscriptions) — independent of the resident subscription
// count and of the population that stood still.
//
// Event semantics per subscription kind, derived from the user's previous
// (last drained epoch) and current positions:
//
//   * geofence — kEnter when the area covers cur but not prev; kLeave when
//     it covers prev but not cur.
//   * range    — geofence events plus kMove when the area covers both and
//     the position changed (continuous tracking inside the area).
//   * friend   — kEnter when the tracked user first appears, kMove on
//     every later position change; no geometry, never leaves.
//
// A user whose record was re-applied at the same position (paused user
// re-reporting) crossed no boundary and moved no distance: skipped.
//
// While the index holds no subscription at all, a drain still publishes,
// counts its candidates and advances its base epoch, but neither locates
// nor matches them: stationary_skips and match_latency() count only the
// candidates of drains that matched.
//
// The match hot path is flat by construction: each task bulk-resolves its
// chunk's current and previous records through
// DirectorySnapshot::locate_many (store probes grouped by shard/region
// instead of ping-ponging per user), the covering probes are SIMD scans
// over the index's SoA cell columns, and the probe's (id, slot, kind)
// CoverMatch triples feed the enter/leave/move merge directly — the loop
// never dereferences the subscription slot array per notification.
// Per-user match timing is sampled (every Nth candidate,
// kTimingSampleEvery) so the steady_clock reads that feed
// match_latency() cost the workload a bounded fraction instead of two
// clock calls per user.  All per-task working state (output staging,
// probe scratch, bulk-locate buffers, tallies) persists across drains.
//
// Determinism contract, matching the rest of the pipeline: the delta is a
// sorted deduplicated user list (identical for every shard count — phase-B
// dispatch-order differences are erased by the sort), matching fans out in
// contiguous static chunks over a WorkerPool with per-task scratch and
// output buffers concatenated in task order, and per-user events emit in
// ascending sub-id order (rect matches first, then friend matches).  The
// serialized notification stream is therefore byte-identical across shard
// and thread counts — bench_notifications aborts on divergence.
//
// Two sources of candidates: the snapshot's delta, when it starts at the
// epoch this engine last drained, and otherwise every resident user.  The
// first drain has no previous epoch, so every resident user is new and
// geofence/range subscriptions fire enters only.  A later rescan — the
// directory tracks no deltas, or another reader published in between —
// counts in full_rescans; it is the path the incremental one is
// benchmarked against.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <tuple>
#include <vector>

#include "common/ids.h"
#include "common/worker_pool.h"
#include "metrics/latency.h"
#include "mobility/directory_snapshot.h"
#include "mobility/sharded_directory.h"
#include "net/codec.h"
#include "net/messages.h"
#include "pubsub/subscription_index.h"

namespace geogrid::pubsub {

/// What happened relative to one subscription.
enum class NotifyEvent : std::uint8_t {
  kEnter = 0,
  kLeave = 1,
  kMove = 2,
};

/// One emitted notification: subscription x user x event at the user's
/// current position.
struct Notification {
  std::uint64_t sub_id = 0;
  UserId user{};
  NotifyEvent event = NotifyEvent::kEnter;
  Point position{};

  friend bool operator==(const Notification&, const Notification&) = default;

  /// Canonical encoding — the unit the divergence abort compares.
  static auto fields(auto& m) {
    return std::tie(m.sub_id, m.user, m.event, m.position);
  }
};

class NotificationEngine {
 public:
  struct Options {
    /// Match fan-out.  0 = hardware threads; 1 = fully serial.  Emitted
    /// notifications never depend on this.
    std::size_t threads = 0;
  };

  /// match_latency() times every Nth candidate user.  Sampling keeps the
  /// two steady_clock reads per measured user from charging clock overhead
  /// to the workload — match_p50/p99 describe matching, not timing.  Never
  /// affects the emitted notifications.
  static constexpr std::size_t kTimingSampleEvery = 32;

  struct Counters {
    std::uint64_t drains = 0;
    std::uint64_t delta_users = 0;      ///< candidate users, matched or not
    /// Matched candidates re-applied at the same position.
    std::uint64_t stationary_skips = 0;
    std::uint64_t notifications = 0;
    std::uint64_t enters = 0;
    std::uint64_t leaves = 0;
    std::uint64_t moves = 0;
    std::uint64_t friend_events = 0;
    /// Drains after the first that rescanned every resident user because
    /// the snapshot carried no delta from the last drained epoch.
    std::uint64_t full_rescans = 0;
    std::uint64_t last_epoch = 0;    ///< epoch of the last drained snapshot
  };

  /// The engine publishes snapshots through `directory` and matches
  /// against `subs`.  Mutating the index between drains is the caller's
  /// (single-threaded) business; drain() itself calls subs.refresh().
  NotificationEngine(mobility::ShardedDirectory& directory,
                     SubscriptionIndex& subs);
  NotificationEngine(mobility::ShardedDirectory& directory,
                     SubscriptionIndex& subs, Options options);

  /// Publishes (or reuses) the directory's snapshot at the current ingest
  /// epoch and emits every notification implied by the movement since the
  /// previously drained epoch.  Writer-side: must not overlap
  /// apply_updates, like publish_snapshot itself.
  std::vector<Notification> drain();

  /// Translates an emitted notification onto a caller-provided wire
  /// message (topic = the subscription's filter), reusing the message's
  /// string capacity — the serialization path allocates nothing in steady
  /// state.
  void to_notify(const Notification& n, net::Notify& out) const;

  /// Convenience overload constructing a fresh message.
  net::Notify to_notify(const Notification& n) const {
    net::Notify msg;
    to_notify(n, msg);
    return msg;
  }

  std::size_t thread_count() const noexcept { return pool_.task_count(); }
  const Counters& counters() const noexcept { return counters_; }

  /// Per-user match latency, sampled every kTimingSampleEvery candidates,
  /// across all drains that matched (merged from the per-task histograms
  /// after each drain).
  const metrics::LatencyHistogram& match_latency() const noexcept {
    return match_hist_;
  }

  /// Canonical serialization of one drained batch: count then each
  /// notification in emission order.
  static void serialize(net::Writer& w, std::span<const Notification> batch);

 private:
  /// Per-task working state, owned by the engine and reused across drains
  /// (fixed pool affinity makes each entry thread-affine): notification
  /// staging, covering-probe outputs, bulk-locate buffers and scratch,
  /// counter tallies, and the drain-local latency histogram.
  struct TaskState {
    std::vector<Notification> out;
    std::vector<CoverMatch> prev_matches;
    std::vector<CoverMatch> cur_matches;
    std::vector<std::optional<mobility::LocationRecord>> cur_recs;
    std::vector<std::optional<mobility::LocationRecord>> prev_recs;
    mobility::DirectorySnapshot::LocateScratch locate_scratch;
    Counters tally;
    metrics::LatencyHistogram hist;
  };

  /// Matches one candidate user given its pre-resolved records, staging
  /// its notifications in state.out and its counts in state.tally.
  void match_user(UserId user, const mobility::LocationRecord* cur_rec,
                  const mobility::LocationRecord* prev_rec,
                  TaskState& state) const;

  /// Runs one task's contiguous chunk of the delta: bulk-locates the
  /// chunk's records, then matches each user (timing sampled).
  void run_chunk(std::span<const UserId> delta, std::size_t lo,
                 std::size_t hi, const mobility::DirectorySnapshot& cur,
                 const mobility::DirectorySnapshot* prev, TaskState& state);

  mobility::ShardedDirectory& directory_;
  SubscriptionIndex& subs_;
  Counters counters_;
  metrics::LatencyHistogram match_hist_;
  common::WorkerPool pool_;
  std::vector<TaskState> tasks_;
  std::shared_ptr<const mobility::DirectorySnapshot> last_;
};

}  // namespace geogrid::pubsub
