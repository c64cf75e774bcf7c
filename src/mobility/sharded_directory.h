// Sharded, batched, parallel ingestion engine for the mobile-user layer.
//
// The paper's workload is dominated by location updates, and spatial
// partitioning makes region state independent: a record lives in exactly
// the region covering its position, so two updates landing in different
// regions never touch the same store.  ShardedDirectory exploits that by
// assigning every region to one of K shards (stable hash of the region id,
// so the assignment survives partition changes); each shard owns its
// regions' LocationStores, and a batch of updates is drained by K workers
// with zero locking on the hot structures.  The user -> region map lives
// with the dispatcher (the per-user memo below), which is the single
// authority on which region currently holds a user.
//
// A batch runs in three phases:
//
//   A. locate (parallel) — each record's target region is resolved through
//      the shared overlay::RegionResolver against a frozen per-user
//      {region, seq} memo: when the cached region's rect still owns the
//      new position (Rect::owns; the overwhelmingly common case — a user
//      rarely leaves its region between reports) that is one rect test.
//      A crossing or a new user is answered from the one cell of the
//      resolver's region grid that its position maps to: every point of
//      the closed plane has exactly one owning region.  A report off the
//      plane or with a non-finite position resolves to no region, in O(1),
//      and phase B drops it uncounted.  The resolver invalidates on
//      Partition::geometry_version(), so splits/merges are observed at the
//      next batch.  Resolution is a pure function of the frozen state, so
//      the result is independent of how records are chunked over threads.
//   B. dispatch (serial) — the seq guard filters stale/replayed records
//      against the per-user memo, boundary crossings enqueue a small
//      eviction message to the shard owning the user's previous region,
//      and the surviving record is appended to its target shard's queue.
//      This is the only serial stage and does O(1) flat-map work per
//      record.
//   C. drain (parallel) — each worker drains exactly one shard's queue in
//      dispatch order.  Evictions use erase_if_stale, so the seq-guard
//      idempotence invariant holds even if an eviction is replayed.
//
// Determinism contract: each region's store receives the same operation
// sequence in the same order for every shard count and every thread
// interleaving — ops for one region always live in one queue, queues
// preserve dispatch order, and the batch barrier between B and C means no
// worker races the dispatcher.  serialize() writes stores sorted by region
// id with canonically-ordered records, so ShardedDirectory(K=1) and (K=8)
// produce byte-identical snapshots from the same update trace; a tier-1
// test pins exactly that.
//
// Read side: the per-call locate/range/k_nearest below read the writer's
// current DirectoryState and are valid only between batches (the serial
// reference path).  Readers that must overlap ingestion go through
// publish_snapshot / current_snapshot: an epoch-versioned immutable
// DirectorySnapshot.  mobility::QueryEngine is the batched consumer of
// those snapshots.
//
// Publication costs O(records applied since the last publish), not
// O(population).  The writer's state is a DirectoryState of shared bodies
// (the user map and one store map per shard), and publish freezes the
// bodies written since the previous publish into the snapshot by
// reference.  Before its next write to a frozen position the writer takes
// back the body the previous snapshot froze — returned by its last
// owner's deleter, so a body a pinned or refcounted reader still holds is
// never written — and replays onto it, in dispatch order, the ShardOps or
// memo updates applied since.  It clones the frozen body instead when no
// such body is free or the op log outgrew the body (Recycler below).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include <atomic>

#include "common/epoch_reclaim.h"
#include "common/flat_map.h"
#include "common/geometry.h"
#include "common/ids.h"
#include "common/worker_pool.h"
#include "mobility/directory_snapshot.h"
#include "mobility/location_store.h"
#include "net/codec.h"
#include "overlay/partition.h"
#include "overlay/region_resolver.h"

namespace geogrid::mobility {

class ShardedDirectory {
 public:
  struct Options {
    /// Shard/worker count.  0 = hardware threads; 1 = fully serial (no
    /// worker threads are spawned, matching the single-threaded engine).
    std::size_t shards = 0;
    double cell_size = 1.0;
    /// Record the per-epoch list of users whose record was applied, so
    /// incremental consumers (pubsub::NotificationEngine) can match only
    /// the ingest delta instead of rescanning the population.  Off by
    /// default: the hot ingest path stays byte-for-byte untouched.
    bool track_deltas = false;
    /// Epochs of delta history retained before the oldest list is
    /// discarded; a consumer that fell further behind must full-rescan.
    std::size_t delta_retention = 1024;
  };

  struct Counters {
    std::uint64_t updates_applied = 0;
    std::uint64_t updates_stale = 0;  ///< rejected by the seq guard
    std::uint64_t handoffs = 0;       ///< updates that crossed a region edge
    std::uint64_t cross_shard_handoffs = 0;  ///< handoffs that crossed shards
    std::uint64_t batches = 0;
    std::uint64_t locate_fast_path = 0;  ///< rect-memo hits (no partition walk)
    std::uint64_t snapshots_published = 0;   ///< fresh DirectorySnapshots built
    /// Shard slices a publish froze because a write touched them since the
    /// previous publish (clean slices are shared with the previous
    /// snapshot and not counted).
    std::uint64_t snapshot_slices_copied = 0;
    /// Bodies (a shard's store map or the user map) a write took back from
    /// a released snapshot and caught up by replaying the logged ops.
    std::uint64_t snapshot_slices_recycled = 0;
    /// Bodies a write had to clone from the frozen one instead: the first
    /// write after the first publish, a previous snapshot still held, or
    /// an op log that outgrew its body.
    std::uint64_t snapshot_slices_cloned = 0;
    std::uint64_t migration_passes = 0;    ///< migrate_regions calls
    std::uint64_t migrated_records = 0;    ///< records re-homed by migration
    std::uint64_t migration_dropped = 0;   ///< transfers vetoed by the filter
    std::uint64_t snapshots_retired = 0;   ///< superseded snapshots queued
    std::uint64_t snapshots_reclaimed = 0;  ///< retired snapshots freed
  };

  /// What one apply_update did.
  struct ApplyResult {
    RegionId region = kInvalidRegion;  ///< region holding the user's record
    bool applied = false;
    bool handoff = false;
  };

  explicit ShardedDirectory(const overlay::Partition& partition);
  ShardedDirectory(const overlay::Partition& partition, Options options);

  ShardedDirectory(const ShardedDirectory&) = delete;
  ShardedDirectory& operator=(const ShardedDirectory&) = delete;

  /// Applies a batch of reports.  Results are independent of shard count
  /// and thread interleaving (see determinism contract above).
  void apply_updates(std::span<const LocationRecord> batch);

  /// Single-record convenience: a batch of one.
  ApplyResult apply_update(const LocationRecord& record);

  /// Decides whether one record's cross-region transfer is delivered this
  /// pass.  Returning false models a dropped transfer message: the record
  /// stays in its old store (and keeps answering point lookups there) until
  /// a later migrate_regions pass retries it.
  using MigrationFilter =
      std::function<bool(UserId user, RegionId from, RegionId to)>;

  /// What one migrate_regions pass did.
  struct MigrationReport {
    std::uint64_t scanned = 0;  ///< records inspected across all stores
    std::uint64_t moved = 0;    ///< records re-homed to their covering region
    std::uint64_t dropped = 0;  ///< transfers vetoed by the filter
    std::uint64_t stores_retired = 0;  ///< emptied dead-region stores freed
    /// Every misplaced record either moved or was deliberately dropped;
    /// a clean pass (dropped == 0) leaves the directory region-consistent.
    bool complete() const noexcept { return dropped == 0; }
  };

  /// Re-homes records stranded by partition geometry changes (split, merge,
  /// failover repair): every record whose region was retired or no longer
  /// covers its position moves to the covering region, byte-preserving its
  /// seq and timestamp.  Misplacement is judged by the same resolver path
  /// ingestion uses, so plane-border semantics match exactly.  Transfers
  /// apply in user-id order, keeping the result byte-identical for every
  /// shard count.  A pass that moved anything counts as one ingest epoch
  /// and its users join the delta history — consumers watching
  /// changed_since observe users that vanished from a removed region even
  /// though no report arrived.  Writer-side only, like apply_updates.
  MigrationReport migrate_regions(const MigrationFilter& filter = {});

  /// Point lookup through the per-user memo (no partition access).
  std::optional<LocationRecord> locate(UserId user) const {
    return current_.locate(user);
  }

  /// The region currently holding `user`, or kInvalidRegion.
  RegionId region_of(UserId user) const { return current_.region_of(user); }

  /// The store of one region (null when no user ever landed there).
  const LocationStore* store(RegionId region) const {
    return current_.store(region);
  }

  /// All records `rect` covers (Rect::covers), gathered across every
  /// region whose rect meets it.  Serial reference path: scans all
  /// partition regions per call.
  std::vector<LocationRecord> range(const Rect& rect) const;

  /// The k records nearest `p` across every shard.  Serial reference path:
  /// orders all resident stores by rect distance per call.
  std::vector<LocationRecord> k_nearest(const Point& p, std::size_t k) const;

  /// Publishes an immutable snapshot of the current state, stamped with
  /// the ingest epoch (applied-batch count).  Copies nothing: the snapshot
  /// shares the writer's current bodies, which freeze, and the next write
  /// to each catches a recycled body up (header comment).  Slices no write
  /// touched since the previous publish are the previous snapshot's, and
  /// publishing twice at the same epoch returns the same snapshot.
  /// Writer-side only: must not overlap apply_updates.
  std::shared_ptr<const DirectorySnapshot> publish_snapshot();

  /// The latest published snapshot (null before the first publish).  Safe
  /// to call from any thread, concurrently with ingestion; the returned
  /// snapshot never changes.  This is the refcounted slow path: each call
  /// locks the publication mutex and bumps the control block — use the
  /// epoch-reclamation pair below on the per-batch read hot path.
  std::shared_ptr<const DirectorySnapshot> current_snapshot() const;

  /// Claims a slot in the snapshot reclamation domain for a long-lived
  /// reader thread (see common/epoch_reclaim.h).  The reader must not
  /// outlive this directory.
  common::EpochDomain::Reader register_reader() const {
    return reclaim_domain_.register_reader();
  }

  /// Refcount-free snapshot acquisition: the caller must be pinned
  /// (EpochDomain::Guard over a registered reader), and the pointer is
  /// valid exactly until the pin is released.  Null before the first
  /// publish.  Unlike current_snapshot(), concurrent readers touch no
  /// shared mutable word — acquisition is two stores to the reader's own
  /// cacheline plus one load.
  const DirectorySnapshot* pinned_snapshot() const noexcept {
    return live_snapshot_.load(std::memory_order_acquire);
  }

  /// Ingest epoch: number of non-empty batches applied so far.
  std::uint64_t ingest_epoch() const noexcept { return counters_.batches; }

  /// One ingest epoch's applied-user list, in dispatch order (a user whose
  /// record was applied twice in one batch appears twice).
  struct EpochDelta {
    std::uint64_t epoch = 0;
    std::vector<UserId> users;
  };

  bool tracks_deltas() const noexcept { return track_deltas_; }

  /// Retained per-epoch applied-user lists, oldest first.  Always empty
  /// unless Options::track_deltas; epochs where every record was rejected
  /// by the seq guard contribute no entry.
  const std::deque<EpochDelta>& epoch_deltas() const noexcept {
    return deltas_;
  }

  /// Highest epoch whose delta has been discarded (0 = full history kept).
  std::uint64_t delta_floor() const noexcept { return delta_floor_; }

  /// Sorted, deduplicated union of every user applied in epochs
  /// (since_epoch, ingest_epoch()].  nullopt when since_epoch predates the
  /// retained history (or deltas are not tracked): the caller must fall
  /// back to a full rescan.
  std::optional<std::vector<UserId>> changed_since(
      std::uint64_t since_epoch) const;

  /// Discards delta history up to and including `epoch`.  A consumer that
  /// drained through `epoch` calls this to bound retained memory.
  void trim_deltas(std::uint64_t epoch);

  std::size_t size() const noexcept { return current_.size(); }
  std::size_t shard_count() const noexcept { return shards_.size(); }
  const Counters& counters() const noexcept { return counters_; }

  /// The shared region-resolution cache (rect memo + spatial region grid).
  /// Refreshed by the write path each batch; the query engine reads it.
  const overlay::RegionResolver& resolver() const noexcept {
    return resolver_;
  }
  const overlay::Partition& partition() const noexcept { return partition_; }

  /// Canonical snapshot of every store (DirectoryState::serialize): equal
  /// contents produce equal bytes for any K.
  void serialize(net::Writer& w) const { current_.serialize(w); }

 private:
  /// One queued store operation.  For evictions, `rec.user` names the user
  /// and `rec.seq` carries max_seq for the erase_if_stale guard; a retire
  /// drops the (emptied) store of a region the partition no longer has.
  struct ShardOp {
    enum class Kind : std::uint8_t { kIngest, kEvict, kRetire };
    LocationRecord rec{};
    RegionId region{};
    Kind kind = Kind::kIngest;
  };

  /// One applied memo update: `user`'s entry became `slot`.
  struct MemoOp {
    UserId user{};
    UserSlot slot{};
  };

  /// How a write came by its body (tallied into the recycle counters).
  enum class Took : std::uint8_t { kNothing, kRecycled, kCloned };

  /// Replay cost bound: a body's entries (users, or records in a shard's
  /// stores).  A log longer than this costs more to replay than a clone.
  static std::size_t entries(const UserMap& users) { return users.size(); }
  static std::size_t entries(const StoreMap& stores);

  /// The writer's ownership of one body position — a shard's store map or
  /// the user map — whose current body sits in `slot`, a member of
  /// current_.  While live() is set the writer mutates that body in place.
  /// freeze() hands it to the snapshot being published; the writer must
  /// then acquire() before it writes again.  acquire() takes back the body
  /// frozen by the publish before, if its last owner has released it
  /// (the deleter returns it under the pool mutex: a handoff TSan sees),
  /// and replays onto it the ops record()ed since; otherwise it clones the
  /// slot's body into a fresh one.  Bodies in steady state: the one in the
  /// latest snapshot and the one the writer mutates.
  template <typename Map, typename Op>
  class Recycler {
   public:
    Recycler() : pool_(std::make_shared<Pool>()) {}
    ~Recycler() {
      std::lock_guard lock(pool_->mu);
      pool_->closed = true;  // later releases free their body
      pool_->returned.clear();
    }
    Recycler(const Recycler&) = delete;
    Recycler& operator=(const Recycler&) = delete;

    /// The body the writer may mutate; null while it is frozen.
    Map* live() const noexcept { return live_; }

    /// Installs a fresh empty writable body into `slot`.
    void init(std::shared_ptr<const Map>& slot) {
      install(slot, std::make_unique<Map>());
    }

    /// Makes `slot` writable.  `apply(Map&, const Op&)` replays one op.
    /// Every returned body but the spare is stale and freed here.
    template <typename Apply>
    Took acquire(std::shared_ptr<const Map>& slot, const Apply& apply) {
      if (live_ != nullptr) return Took::kNothing;
      {
        std::lock_guard lock(pool_->mu);
        std::swap(taken_, pool_->returned);
      }
      std::unique_ptr<Map> body;
      for (std::unique_ptr<Map>& b : taken_) {
        if (b.get() == spare_) body = std::move(b);
      }
      taken_.clear();
      const Took took = body != nullptr ? Took::kRecycled : Took::kCloned;
      if (body != nullptr) {
        for (const Op& op : log_) apply(*body, op);
      } else {
        body = std::make_unique<Map>(*slot);
      }
      base_ = slot.get();
      install(slot, std::move(body));
      return took;
    }

    /// Logs ops just applied to the live body.  Once the log would outgrow
    /// the body it is dropped, and the next acquire clones.  The body is
    /// measured only when the log passes its last measured size.
    void record(std::span<const Op> ops) {
      if (!logging_) return;
      if (log_.size() + ops.size() > log_limit_) {
        log_limit_ = entries(*live_);
        if (log_.size() + ops.size() > log_limit_) {
          logging_ = false;
          log_.clear();
          return;
        }
      }
      log_.insert(log_.end(), ops.begin(), ops.end());
    }

    /// Freezes the live body where it sits; false when there was none (no
    /// write since the last freeze).  The log stays as it is: nothing is
    /// recorded until the next acquire replays it onto the spare.
    bool freeze() {
      if (live_ == nullptr) return false;
      live_ = nullptr;
      spare_ = logging_ ? base_ : nullptr;
      return true;
    }

   private:
    struct Pool {
      std::mutex mu;
      bool closed = false;
      std::vector<std::unique_ptr<Map>> returned;
    };

    void install(std::shared_ptr<const Map>& slot, std::unique_ptr<Map> body) {
      live_ = body.get();
      logging_ = base_ != nullptr;  // nothing frozen yet: nothing to replay
      log_.clear();
      slot = std::shared_ptr<Map>(body.release(), [pool = pool_](Map* m) {
        std::unique_ptr<Map> owned(m);
        std::lock_guard lock(pool->mu);
        if (!pool->closed) pool->returned.push_back(std::move(owned));
      });
    }

    std::shared_ptr<Pool> pool_;  ///< shared with every body's deleter
    std::vector<std::unique_ptr<Map>> taken_;  ///< acquire's scratch
    Map* live_ = nullptr;
    const Map* base_ = nullptr;   ///< the frozen body live_ was made from
    const Map* spare_ = nullptr;  ///< base_ once frozen; log_ levels it
    std::vector<Op> log_;         ///< ops applied since the last acquire
    std::size_t log_limit_ = 0;   ///< entries at the last measurement
    bool logging_ = false;
  };

  /// Cacheline-aligned: shard s is written only by task s during the
  /// parallel phases, and adjacent shards' queue/store headers must not
  /// share a line or phase C serializes on coherence traffic instead of
  /// running independently.
  struct alignas(64) Shard {
    std::vector<ShardOp> queue;
    Recycler<StoreMap, ShardOp> stores;  ///< body in current_.slices[s]
    Took took = Took::kNothing;          ///< this drain's acquire
  };

  /// Per-task phase-A tallies, one cacheline each (written concurrently by
  /// neighbouring tasks every batch).  Persistent across batches so the
  /// parallel locate phase allocates nothing in steady state.
  struct alignas(64) PhaseATally {
    std::uint64_t fast_hits = 0;
    std::uint64_t new_users = 0;
  };

  std::size_t shard_of(RegionId region) const noexcept {
    return shard_of_region(region, shards_.size());
  }

  /// Phase C: drains every shard queue in dispatch order, one worker each.
  void drain_queues();

  /// Applies one store operation (the drain and the replay both do).
  void apply(StoreMap& stores, const ShardOp& op) const;

  /// The writable user map, recycled or cloned on the first write after a
  /// publish.
  UserMap& write_users();

  /// Frees the retired snapshots no pinned reader can still reach; their
  /// bodies return for recycling.
  void reclaim_retired();

  void count(Took took) noexcept {
    counters_.snapshot_slices_recycled += took == Took::kRecycled ? 1 : 0;
    counters_.snapshot_slices_cloned += took == Took::kCloned ? 1 : 0;
  }

  const overlay::Partition& partition_;
  double cell_size_;
  bool track_deltas_;
  std::size_t delta_retention_;

  // The writer's state: the user -> region memo (the dispatcher's, touched
  // only between batch barriers) and each shard's stores, as shared bodies
  // a publish freezes by reference.
  DirectoryState current_;
  Recycler<UserMap, MemoOp> users_;

  // Dispatcher state (touched only between batch barriers).
  overlay::RegionResolver resolver_;
  std::vector<RegionId> targets_;  ///< phase-A output, one per batch record
  /// Phase-A memo-entry pointers, one per batch record (null = new user).
  /// Valid through phase B: the memo is reserved for the batch's new
  /// users up front and open addressing never moves slots on insert.
  std::vector<UserSlot*> states_;
  Counters counters_;

  // Delta history (dispatcher state): one applied-user list per tracked
  // epoch, bounded by delta_retention_; delta_floor_ marks trimmed history.
  std::deque<EpochDelta> deltas_;
  std::uint64_t delta_floor_ = 0;

  common::WorkerPool pool_;
  std::vector<Shard> shards_;
  std::vector<PhaseATally> phase_a_tally_;  ///< one aligned slot per task

  // Snapshot publication state.  published_ is swapped under
  // snapshot_mutex_ so current_snapshot() is safe from reader threads.
  // live_snapshot_ mirrors published_.get() for the refcount-free pinned
  // read path; superseded snapshots park in retired_ until the
  // reclamation domain proves no pinned reader can still reach them.
  std::shared_ptr<const DirectorySnapshot> published_;
  mutable std::mutex snapshot_mutex_;
  std::atomic<const DirectorySnapshot*> live_snapshot_{nullptr};
  mutable common::EpochDomain reclaim_domain_;
  struct RetiredSnapshot {
    std::shared_ptr<const DirectorySnapshot> snapshot;
    std::uint64_t retired_at = 0;
  };
  std::vector<RetiredSnapshot> retired_;  ///< writer-side, publish-ordered
};

}  // namespace geogrid::mobility
