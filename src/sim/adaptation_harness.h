// Adaptation-under-fire harness: the paper's load-balance mechanisms and
// dual-peer failover driven against the live mobile-user hot path.
//
// Everything before this harness tested adaptation on static overlays (no
// ingest or queries in flight) and the mobile path on static partitions
// (no splits or merges mid-run).  The harness closes the loop: migrating
// hot spots steer a population of reporting users through ShardedDirectory
// ingest and QueryEngine batches tick by tick, and at scheduled ticks the
// AdaptationDriver fires the eight mechanisms (and/or a dual-peer
// failover) against the live partition, followed by
// ShardedDirectory::migrate_regions to re-home the records the geometry
// change stranded — optionally under an injected fault (fault_injector.h).
//
// Correctness is judged against a *never-adapted reference*: a second
// directory over a frozen copy of the starting partition fed the exact
// same update batches.  Every tick the harness compares, byte for byte:
//
//   * canonicalized query results (records sorted by user id, erasing the
//     region-merge-order difference between the two partitions),
//   * notification streams from two NotificationEngines sharing one
//     SubscriptionIndex (continuity across failover: no missing, extra or
//     duplicate notifications),
//   * per-user records (position/seq parity; a user the reference holds
//     but the live side lost is a lost user).
//
// After each adaptation the migration itself is verified snapshot-style:
// the live directory's canonical serialization must equal that of a fresh
// directory rebuilt on the adapted partition from the same records — a
// torn migration (record in the wrong store, stale duplicate, memo
// disagreement) cannot produce equal bytes.
//
// What production cares about is recorded per phase: update and query
// latency histograms split into before / during / after adaptation
// windows (metrics::LatencyHistogram, sampled per sub-batch), plus
// dropped/retried transfer counts, replayed-update rejections, and
// adaptation stall time.  The bench and the property-test matrix are both
// thin wrappers over Report.
//
// Determinism: user motion, query mix, subscriptions, hot-spot migration
// (HotSpotField::advance) and fault decisions all derive from
// Options::seed, so a run is replayable bit-for-bit at any shard/thread
// count.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/geometry.h"
#include "common/ids.h"
#include "common/rng.h"
#include "loadbalance/driver.h"
#include "metrics/latency.h"
#include "mobility/query_engine.h"
#include "mobility/sharded_directory.h"
#include "overlay/partition.h"
#include "pubsub/notification_engine.h"
#include "pubsub/subscription_index.h"
#include "sim/fault_injector.h"
#include "workload/hotspot.h"

namespace geogrid::sim {

class AdaptationHarness {
 public:
  struct Options {
    std::size_t users = 2000;
    std::size_t ticks = 12;
    /// P(a user reports this tick).  Below 1.0 the migration delta path is
    /// exercised: migrated-but-silent users enter the delta without a
    /// report and must not produce notifications.
    double report_rate = 1.0;
    std::size_t queries_per_tick = 96;
    std::size_t subscriptions = 96;
    /// Latency sampling granularity: each tick's update batch and query
    /// batch run in this many timed sub-batches.
    std::size_t sub_batches = 4;

    /// Ticks at which the adaptation window opens (driver steps and/or a
    /// failover, then region migration under the configured fault).
    std::vector<std::size_t> event_ticks = {4, 8};
    /// Ticks after an event still counted as the "during" phase.
    std::size_t during_window = 2;
    /// Driver steps attempted per event (each executes at most one plan).
    std::size_t ops_per_event = 4;
    /// Run the load-balance driver at events.
    bool use_driver = true;
    /// Crash the hottest region's primary at each event (dual_fail).
    bool failover = false;
    loadbalance::PlannerConfig planner{};

    FaultKind fault = FaultKind::kNone;

    /// Per-user record parity live-vs-reference every tick (tests) or only
    /// at events and the final tick (bench scale).
    bool deep_parity_every_tick = true;

    std::uint64_t seed = 1;
    std::size_t ingest_shards = 1;
    std::size_t query_threads = 1;
    std::size_t notify_threads = 1;
  };

  /// Which adaptation window a tick falls in.
  enum class Phase : std::uint8_t { kBefore = 0, kDuring = 1, kAfter = 2 };

  struct PhaseLatency {
    metrics::LatencyHistogram update;  ///< per-record micros, per sub-batch
    metrics::LatencyHistogram query;   ///< per-query micros, per sub-batch
  };

  struct Report {
    PhaseLatency before;
    PhaseLatency during;
    PhaseLatency after;

    // Adaptation activity.
    std::uint64_t adaptations_executed = 0;
    std::array<std::size_t, loadbalance::kMechanismCount> per_mechanism{};
    std::uint64_t failovers = 0;
    std::uint64_t geometry_changes = 0;  ///< geometry_version delta at events
    std::uint64_t adaptation_stall_us = 0;  ///< time inside driver+migration

    // Migration activity.
    std::uint64_t migrated_records = 0;
    std::uint64_t migration_passes = 0;
    std::uint64_t migration_retries = 0;  ///< passes beyond the first
    std::uint64_t dropped_transfers = 0;
    std::uint64_t stores_retired = 0;

    // Injected-fault activity.
    std::uint64_t delayed_updates = 0;
    std::uint64_t replayed_updates = 0;
    std::uint64_t replays_rejected = 0;  ///< seq guard caught the replay

    // Workload volume.
    std::uint64_t updates_sent = 0;
    std::uint64_t queries_run = 0;
    std::uint64_t notifications = 0;
    /// The live notification engine's full_rescans: drains whose snapshot
    /// carried no delta from the previous drain.  Migration epochs and the
    /// query engine's publishes must never cause one.
    std::uint64_t notify_rescans = 0;
    double update_secs = 0.0;  ///< live-directory ingest wall time
    double query_secs = 0.0;   ///< live-engine query wall time

    // Violations (all must be zero for a correct run).
    std::uint64_t lost_users = 0;
    std::uint64_t record_parity_failures = 0;
    std::uint64_t query_divergences = 0;
    std::uint64_t notify_divergences = 0;
    std::uint64_t duplicate_notifications = 0;
    std::uint64_t migration_verify_failures = 0;

    bool clean() const noexcept {
      return lost_users == 0 && record_parity_failures == 0 &&
             query_divergences == 0 && notify_divergences == 0 &&
             duplicate_notifications == 0 && migration_verify_failures == 0;
    }
  };

  /// The harness adapts `partition` in place (the caller's live overlay)
  /// and privately copies it as the never-adapted reference.  `field`
  /// supplies region loads to the planner and is advanced deterministically
  /// each tick via HotSpotField::advance(seed, tick).  Neither may be
  /// mutated externally while run() executes.
  AdaptationHarness(overlay::Partition& partition,
                    workload::HotSpotField& field, Options options);

  AdaptationHarness(const AdaptationHarness&) = delete;
  AdaptationHarness& operator=(const AdaptationHarness&) = delete;

  /// Drives the full tick schedule once and returns the report.  One-shot:
  /// construct a fresh harness per run.
  Report run();

  const Options& options() const noexcept { return options_; }

 private:
  Phase phase_of(std::size_t tick) const noexcept;

  /// Builds this tick's update batch (reporting users only, user order).
  std::vector<mobility::LocationRecord> make_batch(std::size_t tick,
                                                   Rng& rng);
  std::vector<mobility::Query> make_queries(Rng& rng);

  /// Ingests `batch` into the live directory in timed sub-batches.
  void ingest_live(std::span<const mobility::LocationRecord> batch,
                   PhaseLatency& lat);
  void run_queries(std::span<const mobility::Query> queries,
                   PhaseLatency& lat);
  void drain_notifications();

  /// One adaptation window: driver steps and/or failover, then migration
  /// retried to completion under the fault filter, then verification.
  void adaptation_event();
  void do_failover();
  void migrate_with_retries();
  void verify_migration();

  /// Per-user record parity against the reference (lost users, position/
  /// seq mismatches).
  void check_parity();

  Options options_;
  overlay::Partition& live_partition_;
  overlay::Partition ref_partition_;  ///< frozen copy, never adapted
  workload::HotSpotField& field_;
  FaultInjector injector_;

  std::unique_ptr<mobility::ShardedDirectory> live_dir_;
  std::unique_ptr<mobility::ShardedDirectory> ref_dir_;
  std::unique_ptr<mobility::QueryEngine> live_queries_;
  std::unique_ptr<mobility::QueryEngine> ref_queries_;
  pubsub::SubscriptionIndex subs_;
  std::unique_ptr<pubsub::NotificationEngine> live_notify_;
  std::unique_ptr<pubsub::NotificationEngine> ref_notify_;
  std::unique_ptr<loadbalance::AdaptationDriver> driver_;

  // Per-user workload state (index = user id - 1).
  std::vector<Point> positions_;
  std::vector<std::uint64_t> seqs_;

  Report report_;
};

}  // namespace geogrid::sim
