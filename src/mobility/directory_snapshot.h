// Epoch-versioned immutable read view of a sharded location directory.
//
// The write side (ShardedDirectory) mutates its per-shard stores batch by
// batch; readers that walked those live structures would tear — half a
// batch applied, a record mid-handoff present in two regions or neither.
// DirectorySnapshot is the read side's answer: a frozen DirectoryState —
// the user -> region map plus one store-map slice per shard — stamped
// with the ingest epoch (number of applied batches) it reflects.  A
// snapshot is reached only through shared_ptr<const ...>, so a reader
// holding one sees exactly one epoch for as long as it keeps the pointer,
// no matter how far the writer advances — the isolation contract the
// concurrent ingest-while-query test pins.
//
// The writer and its snapshots hold the same DirectoryState type: publish
// freezes the writer's current bodies (the user map and each slice) into
// the snapshot by reference, without copying, and a slice no write
// touched since the previous publish is shared between consecutive
// snapshots.  The writer never mutates a frozen body: before its next
// write it takes back a body its readers have released and catches it up
// by replaying the operations applied since (ShardedDirectory::Recycler).
// Queries pay the same flat-map probes they would against the live
// structures.
//
// Store content under a region id is byte-identical for every shard count
// (the ingestion determinism contract), and the slice layout only routes
// lookups, so two snapshots of equivalent directories with different K
// serialize to identical bytes — which is what lets the query engine
// promise shard-count-invariant results.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "common/flat_map.h"
#include "common/ids.h"
#include "mobility/location_store.h"
#include "net/codec.h"

namespace geogrid::mobility {

/// Where one user's latest applied report lives: the owning region and the
/// sequence number guarding against stale/replayed reports.
struct UserSlot {
  RegionId region = kInvalidRegion;
  std::uint64_t seq = 0;
};

/// Stable region -> shard assignment shared by the live directory and its
/// snapshots (hash of the region id, so it survives partition changes).
inline std::size_t shard_of_region(RegionId region,
                                   std::size_t shards) noexcept {
  return shards == 1 ? 0
                     : static_cast<std::size_t>(common::mix_hash(region.value) %
                                                shards);
}

using UserMap = common::FlatMap<UserId, UserSlot>;
using StoreMap = common::FlatMap<RegionId, LocationStore>;

/// The directory's state as the writer holds it and a snapshot freezes it:
/// the user -> region map and one store map per shard, each a shared body.
/// The writer's lookups and a snapshot's are both these.
struct DirectoryState {
  std::shared_ptr<const UserMap> users;
  std::vector<std::shared_ptr<const StoreMap>> slices;

  std::size_t size() const noexcept { return users->size(); }

  /// The region holding `user`, or kInvalidRegion.
  RegionId region_of(UserId user) const {
    const UserSlot* slot = users->find(user);
    return slot == nullptr ? kInvalidRegion : slot->region;
  }

  /// The store of one region (null when no user lived there).
  const LocationStore* store(RegionId region) const {
    return slices[shard_of_region(region, slices.size())]->find(region);
  }

  /// Point lookup through the user -> region map.
  std::optional<LocationRecord> locate(UserId user) const {
    const UserSlot* slot = users->find(user);
    if (slot == nullptr) return std::nullopt;
    const LocationStore* st = store(slot->region);
    return st == nullptr ? std::nullopt : st->locate(user);
  }

  /// Canonical serialization: regions sorted by id, records sorted by
  /// user.  Empty stores are skipped, so a directory whose users all
  /// migrated out of a region serializes identically to one that never
  /// populated it.  Equal contents produce equal bytes for any K.
  void serialize(net::Writer& w) const;
};

class DirectorySnapshot {
 public:
  using StoreMap = mobility::StoreMap;

  DirectorySnapshot(std::uint64_t epoch, UserMap users,
                    std::vector<std::shared_ptr<const StoreMap>> slices)
      : epoch_(epoch),
        state_{std::make_shared<const UserMap>(std::move(users)),
               std::move(slices)} {}

  /// Delta-stamped snapshot of `state`: `delta` is the sorted deduplicated
  /// list of users whose record was applied in epochs
  /// (delta_base_epoch, epoch], or nullopt when that history was not
  /// tracked / already trimmed.
  DirectorySnapshot(std::uint64_t epoch, DirectoryState state,
                    std::uint64_t delta_base_epoch,
                    std::optional<std::vector<UserId>> delta)
      : epoch_(epoch),
        state_(std::move(state)),
        delta_base_(delta_base_epoch),
        delta_(std::move(delta)) {}

  /// Ingest epoch (applied-batch count) this snapshot reflects.
  std::uint64_t epoch() const noexcept { return epoch_; }

  std::size_t size() const noexcept { return state_.size(); }
  std::size_t shard_count() const noexcept { return state_.slices.size(); }

  /// The region holding `user` at this epoch, or kInvalidRegion.
  RegionId region_of(UserId user) const { return state_.region_of(user); }

  /// The frozen store of one region (null when no user lived there).
  const LocationStore* store(RegionId region) const {
    return state_.store(region);
  }

  /// Point lookup through the frozen user -> region map.
  std::optional<LocationRecord> locate(UserId user) const {
    return state_.locate(user);
  }

  /// Reusable working state for locate_many (the sort scratch), so a
  /// caller draining every epoch never reallocates it.
  struct LocateScratch {
    /// (shard|region sort key, input index) pairs.
    std::vector<std::pair<std::uint64_t, std::uint32_t>> order;
  };

  /// Batched point lookup: sets out[i] = locate(users[i]) for every i,
  /// with the store probes grouped by (shard, region) so consecutive
  /// lookups hit the same slice and store maps instead of ping-ponging
  /// across shards — the access pattern a per-user locate loop produces.
  /// `out` is resized to users.size(); results land at input positions,
  /// so the output is independent of the internal grouping.
  void locate_many(std::span<const UserId> users, LocateScratch& scratch,
                   std::vector<std::optional<LocationRecord>>& out) const;

  /// Epoch of the previously published snapshot this one's delta is
  /// relative to; the delta covers exactly (delta_base_epoch, epoch].
  std::uint64_t delta_base_epoch() const noexcept { return delta_base_; }

  /// Whether this snapshot carries a changed-user delta (the directory
  /// tracked deltas and retained full history since the base epoch).
  bool has_delta() const noexcept { return delta_.has_value(); }

  /// Users whose record was applied in (delta_base_epoch, epoch], sorted
  /// by id, deduplicated.  Empty span when !has_delta().
  std::span<const UserId> delta() const noexcept {
    return delta_ ? std::span<const UserId>(*delta_) : std::span<const UserId>{};
  }

  /// Every user resident at this epoch, sorted by id, appended to `out` —
  /// the full-rescan fallback for consumers whose delta history was lost.
  void collect_users(std::vector<UserId>& out) const;

  /// Canonical serialization (DirectoryState::serialize).
  void serialize(net::Writer& w) const { state_.serialize(w); }

 private:
  std::uint64_t epoch_;
  DirectoryState state_;
  std::uint64_t delta_base_ = 0;
  std::optional<std::vector<UserId>> delta_;
};

}  // namespace geogrid::mobility
