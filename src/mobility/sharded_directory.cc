#include "mobility/sharded_directory.h"

#include <algorithm>
#include <tuple>
#include <utility>

namespace geogrid::mobility {

namespace {

void sort_unique(std::vector<UserId>& users) {
  std::sort(users.begin(), users.end());
  users.erase(std::unique(users.begin(), users.end()), users.end());
}

}  // namespace

ShardedDirectory::ShardedDirectory(const overlay::Partition& partition)
    : ShardedDirectory(partition, Options{}) {}

ShardedDirectory::ShardedDirectory(const overlay::Partition& partition,
                                   Options options)
    : partition_(partition),
      cell_size_(options.cell_size),
      track_deltas_(options.track_deltas),
      resolver_(partition),
      pool_(options.shards),
      shards_(pool_.task_count()),
      phase_a_tally_(pool_.task_count()) {
  users_.init(current_.users);
  current_.slices.resize(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    shards_[s].stores.init(current_.slices[s]);
  }
}

std::size_t ShardedDirectory::entries(const StoreMap& stores) {
  std::size_t n = 0;
  stores.for_each([&](RegionId, const LocationStore& st) { n += st.size(); });
  return n;
}

UserMap& ShardedDirectory::write_users() {
  count(users_.acquire(current_.users, [](UserMap& users, const MemoOp& op) {
    *users.try_emplace(op.user).first = op.slot;
  }));
  return *users_.live();
}

void ShardedDirectory::apply_updates(std::span<const LocationRecord> batch) {
  if (batch.empty()) return;
  resolver_.refresh();
  ++counters_.batches;
  // A reader pinned during the last publish kept its superseded snapshot;
  // freeing it now lets this batch recycle that snapshot's bodies.
  reclaim_retired();
  UserMap& memo = write_users();

  // Phase A: resolve target regions in parallel against the frozen memo.
  // RegionResolver::resolve is a pure read of memo/resolver_/partition_,
  // so chunking cannot change any record's answer.  The memo-entry pointer
  // found here is reused by phase B (one hash probe per record, not two);
  // reserving the memo for the batch's new users keeps it valid across the
  // phase-B inserts.
  targets_.resize(batch.size());
  states_.resize(batch.size());
  const std::size_t chunks = shards_.size();
  // Task c always lands on the same pool thread (fixed affinity), and its
  // tally slot is alone on a cacheline — the parallel locate phase writes
  // nothing shared and allocates nothing.
  pool_.run([&](std::size_t c) {
    PhaseATally& tally = phase_a_tally_[c];
    tally = PhaseATally{};
    const std::size_t lo = batch.size() * c / chunks;
    const std::size_t hi = batch.size() * (c + 1) / chunks;
    bool fast = false;
    for (std::size_t i = lo; i < hi; ++i) {
      fast = false;
      states_[i] = memo.find(batch[i].user);
      const RegionId hint =
          states_[i] == nullptr ? kInvalidRegion : states_[i]->region;
      targets_[i] = resolver_.resolve(batch[i].position, hint, &fast);
      tally.fast_hits += fast ? 1 : 0;
      tally.new_users += states_[i] == nullptr ? 1 : 0;
    }
  });
  std::uint64_t new_users = 0;
  for (const PhaseATally& t : phase_a_tally_) {
    counters_.locate_fast_path += t.fast_hits;
    new_users += t.new_users;
  }
  if (new_users > 0) {
    // Pre-size the memo so the phase-B try_emplace loop never rehashes
    // mid-iteration.  The reserve itself may rehash right here, though,
    // and that moves every entry — the memo pointers phase A cached for
    // *existing* users are then dangling and must be re-found before
    // phase B dereferences them.  Only growth batches pay the re-probe.
    const std::size_t cap_before = memo.capacity();
    memo.reserve(memo.size() + new_users);
    if (memo.capacity() != cap_before) {
      for (std::size_t i = 0; i < batch.size(); ++i) {
        if (states_[i] != nullptr) states_[i] = memo.find(batch[i].user);
      }
    }
  }

  // Phase B: serial dispatch — seq guard, handoff evictions, shard queues.
  for (auto& shard : shards_) shard.queue.clear();
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const LocationRecord& rec = batch[i];
    const RegionId target = targets_[i];
    if (target == kInvalidRegion) continue;  // off the plane, or no regions
    UserSlot* state = states_[i];
    bool inserted = false;
    if (state == nullptr) {
      // New to phase A — but an earlier record of this batch may have
      // inserted the user already, so try_emplace, not blind insert.
      std::tie(state, inserted) = memo.try_emplace(rec.user);
    }
    if (!inserted && rec.seq <= state->seq) {
      ++counters_.updates_stale;
      continue;
    }
    if (!inserted && state->region != target) {
      ++counters_.handoffs;
      const std::size_t from = shard_of(state->region);
      if (from != shard_of(target)) ++counters_.cross_shard_handoffs;
      // Eviction message: user + max_seq (the seq of the record being
      // displaced).  Queued before the ingest so a same-shard handoff
      // drains in the right order.
      shards_[from].queue.push_back(
          ShardOp{LocationRecord{rec.user, Point{}, state->seq, 0.0},
                  state->region, ShardOp::Kind::kEvict});
    }
    shards_[shard_of(target)].queue.push_back(ShardOp{rec, target});
    state->region = target;
    state->seq = rec.seq;
    const MemoOp op{rec.user, *state};
    users_.record({&op, 1});
    ++counters_.updates_applied;
    pend(rec.user);
  }

  // Phase C: drain every shard queue in dispatch order, one worker each.
  drain_queues();
}

void ShardedDirectory::drain_queues() {
  pool_.run([this](std::size_t s) {
    Shard& shard = shards_[s];
    shard.took = Took::kNothing;
    if (shard.queue.empty()) return;
    // Catch-up runs here, on the shard's own task, before the first write.
    shard.took = shard.stores.acquire(
        current_.slices[s],
        [this](StoreMap& stores, const ShardOp& op) { apply(stores, op); });
    StoreMap& stores = *shard.stores.live();
    for (const ShardOp& op : shard.queue) apply(stores, op);
    shard.stores.record(shard.queue);
  });
  for (const Shard& shard : shards_) count(shard.took);
}

void ShardedDirectory::apply(StoreMap& stores, const ShardOp& op) const {
  switch (op.kind) {
    case ShardOp::Kind::kIngest:
      // The store is built only when the region is new to this map.
      stores.try_emplace(op.region, cell_size_).first->ingest(op.rec);
      break;
    case ShardOp::Kind::kEvict:
      if (LocationStore* store = stores.find(op.region)) {
        store->erase_if_stale(op.rec.user, op.rec.seq);
      }
      break;
    case ShardOp::Kind::kRetire:
      stores.erase(op.region);
      break;
  }
}

ShardedDirectory::MigrationReport ShardedDirectory::migrate_regions(
    const MigrationFilter& filter) {
  MigrationReport report;
  ++counters_.migration_passes;
  resolver_.refresh();
  reclaim_retired();

  struct Move {
    LocationRecord rec{};
    RegionId from{};
    RegionId to{};
  };
  // Scan in parallel: each worker sweeps its own shard's stores and
  // collects records whose region no longer covers them.  Misplacement is
  // judged through resolver_.resolve with the holding region as hint — the
  // exact cover test the ingest fast path applies, so records sitting on
  // the plane border resolve the same way they did when ingested.
  std::vector<std::vector<Move>> found(shards_.size());
  std::vector<std::uint64_t> scanned(shards_.size(), 0);
  pool_.run([&](std::size_t s) {
    current_.slices[s]->for_each([&](RegionId id, const LocationStore& st) {
      const RegionId hint = partition_.has_region(id) ? id : kInvalidRegion;
      st.for_each([&](const LocationRecord& rec) {
        ++scanned[s];
        bool fast = false;
        const RegionId target = resolver_.resolve(rec.position, hint, &fast);
        if (target == id || target == kInvalidRegion) return;
        found[s].push_back(Move{rec, id, target});
      });
    });
  });
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    report.scanned += scanned[s];
  }

  // Transfers apply in user-id order so every region's store sees the same
  // operation sequence for any shard count (the determinism contract).
  std::vector<Move> moves;
  for (std::vector<Move>& f : found) {
    moves.insert(moves.end(), f.begin(), f.end());
  }
  std::sort(moves.begin(), moves.end(), [](const Move& a, const Move& b) {
    return a.rec.user < b.rec.user;
  });

  for (auto& shard : shards_) shard.queue.clear();
  UserMap* memo = moves.empty() ? nullptr : &write_users();
  for (const Move& m : moves) {
    if (filter && !filter(m.rec.user, m.from, m.to)) {
      ++report.dropped;
      continue;
    }
    // Eviction first (as in phase B) so a same-shard transfer drains in
    // the right order; max_seq = the record's own seq, which the old store
    // holds exactly, so erase_if_stale always removes it.
    shards_[shard_of(m.from)].queue.push_back(
        ShardOp{LocationRecord{m.rec.user, Point{}, m.rec.seq, 0.0}, m.from,
                ShardOp::Kind::kEvict});
    shards_[shard_of(m.to)].queue.push_back(ShardOp{m.rec, m.to});
    if (UserSlot* state = memo->find(m.rec.user)) {
      state->region = m.to;
      const MemoOp op{m.rec.user, *state};
      users_.record({&op, 1});
    }
    ++report.moved;
    // The moved users join the next snapshot's delta, so its consumers see
    // users a removed region no longer holds.
    pend(m.rec.user);
  }

  if (report.moved > 0) {
    drain_queues();
    // A migration that changed store contents is an ingest epoch of its
    // own: snapshots republish.
    ++counters_.batches;
    counters_.migrated_records += report.moved;
  }
  counters_.migration_dropped += report.dropped;

  // Free the stores of retired regions once they emptied; live regions
  // keep their (empty) stores — serialize skips them either way.
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    shards_[s].queue.clear();
    current_.slices[s]->for_each([&](RegionId id, const LocationStore& st) {
      if (!st.empty() || partition_.has_region(id)) return;
      shards_[s].queue.push_back(ShardOp{{}, id, ShardOp::Kind::kRetire});
      ++report.stores_retired;
    });
  }
  if (report.stores_retired > 0) drain_queues();
  return report;
}

ShardedDirectory::ApplyResult ShardedDirectory::apply_update(
    const LocationRecord& record) {
  const Counters before = counters_;
  apply_updates(std::span<const LocationRecord>(&record, 1));
  ApplyResult result;
  result.applied = counters_.updates_applied > before.updates_applied;
  result.handoff = counters_.handoffs > before.handoffs;
  result.region = region_of(record.user);
  return result;
}

std::vector<LocationRecord> ShardedDirectory::range(const Rect& rect) const {
  std::vector<LocationRecord> out;
  for (const auto& [id, region] : partition_.regions()) {
    if (!region.rect.meets(rect)) continue;
    const LocationStore* st = store(id);
    if (st == nullptr) continue;
    st->range_into(rect, out);
  }
  return out;
}

std::vector<LocationRecord> ShardedDirectory::k_nearest(const Point& p,
                                                        std::size_t k) const {
  std::vector<LocationRecord> out;
  if (k == 0) return out;
  std::vector<std::pair<double, RegionId>> order;
  for (const auto& slice : current_.slices) {
    slice->for_each([&](RegionId id, const LocationStore& st) {
      if (st.empty() || !partition_.has_region(id)) return;
      order.emplace_back(partition_.region(id).rect.distance_to(p), id);
    });
  }
  std::sort(order.begin(), order.end());
  NearestSet best;
  best.reset(k);
  for (const auto& [floor_dist, id] : order) {
    if (floor_dist > best.reach()) break;
    store(id)->k_nearest_into(p, best);
  }
  best.take_sorted(out);
  return out;
}

void ShardedDirectory::pend(UserId user) {
  if (!track_deltas_) return;
  pending_.push_back(user);
  if (pending_.size() > 2 * current_.size()) sort_unique(pending_);
}

std::shared_ptr<const DirectorySnapshot> ShardedDirectory::publish_snapshot() {
  if (published_ != nullptr && published_->epoch() == ingest_epoch()) {
    return published_;
  }
  // Freeze, don't copy: the snapshot shares the writer's current bodies.
  // A slice no write touched since the previous publish is the previous
  // snapshot's, so only written slices count as republished.
  for (Shard& shard : shards_) {
    counters_.snapshot_slices_copied += shard.stores.freeze() ? 1 : 0;
  }
  users_.freeze();
  ++counters_.snapshots_published;
  // The snapshot carries the users applied since the previously published
  // epoch, so its consumers get the delta without touching the (mutable)
  // directory again.
  std::optional<std::vector<UserId>> delta;
  if (track_deltas_) {
    sort_unique(pending_);
    delta.emplace(pending_.begin(), pending_.end());
    pending_.clear();
  }
  const std::uint64_t base_epoch =
      published_ == nullptr ? 0 : published_->epoch();
  auto snap = std::make_shared<const DirectorySnapshot>(
      ingest_epoch(), current_, base_epoch, std::move(delta));
  std::shared_ptr<const DirectorySnapshot> superseded =
      std::exchange(published_, snap);
  // Epoch-based reclamation handshake: publish the new raw pointer FIRST,
  // then stamp the superseded snapshot and scan reader slots.  A pinned
  // reader either shows up in the scan (its snapshot is kept) or pinned
  // after the publish and can only be holding the new snapshot.
  live_snapshot_.store(snap.get(), std::memory_order_release);
  if (superseded != nullptr) {
    retired_.push_back(RetiredSnapshot{std::move(superseded),
                                       reclaim_domain_.retire_epoch()});
    ++counters_.snapshots_retired;
  }
  reclaim_retired();
  return snap;
}

void ShardedDirectory::reclaim_retired() {
  if (retired_.empty()) return;
  const std::uint64_t safe = reclaim_domain_.safe_epoch();
  for (std::size_t i = 0; i < retired_.size();) {
    if (retired_[i].retired_at < safe) {
      counters_.snapshots_reclaimed += 1;
      retired_[i] = std::move(retired_.back());
      retired_.pop_back();
    } else {
      ++i;
    }
  }
}

}  // namespace geogrid::mobility
