// ShardedDirectory: batched parallel ingestion, shard-count invariance,
// handoff eviction ordering and parity with a per-record ingest oracle.
#include "mobility/sharded_directory.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "common/rng.h"
#include "mobility/motion.h"
#include "partition_fixture.h"

namespace geogrid::mobility {
namespace {

using testutil::kPlane;
using testutil::QuadrantFixture;

LocationRecord rec(std::uint32_t user, double x, double y,
                   std::uint64_t seq = 1) {
  return LocationRecord{UserId{user}, Point{x, y}, seq, 0.0};
}

/// One seeded motion trace, chopped into per-tick batches.
std::vector<std::vector<LocationRecord>> make_trace(std::size_t users,
                                                    int ticks,
                                                    std::uint64_t seed) {
  UserPopulation::Options opt;
  opt.max_pause = 2.0;
  UserPopulation pop(users, opt, nullptr, Rng(seed));
  std::vector<std::vector<LocationRecord>> batches;
  double now = 0.0;
  for (int step = 0; step < ticks; ++step) {
    now += 1.0;
    pop.step(1.0, now);
    std::vector<LocationRecord> batch;
    batch.reserve(users);
    for (auto& u : pop.users()) {
      batch.push_back({u.id, u.position, u.next_seq++, now});
    }
    batches.push_back(std::move(batch));
  }
  return batches;
}

std::vector<std::byte> snapshot(const ShardedDirectory& dir) {
  net::Writer w;
  dir.serialize(w);
  return std::move(w).take();
}

TEST(ShardedDirectory, ShardCountInvariance) {
  // The acceptance-criteria test: the same update trace through K=1 and
  // K=8 must leave byte-identical serialized stores and equal counters.
  QuadrantFixture fx;
  ShardedDirectory serial(fx.partition, {.shards = 1});
  ShardedDirectory sharded(fx.partition, {.shards = 8});
  EXPECT_EQ(serial.shard_count(), 1u);
  EXPECT_EQ(sharded.shard_count(), 8u);

  for (const auto& batch : make_trace(300, 40, 77)) {
    serial.apply_updates(batch);
    sharded.apply_updates(batch);
  }
  EXPECT_EQ(serial.size(), 300u);
  EXPECT_EQ(sharded.size(), 300u);
  EXPECT_EQ(serial.counters().updates_applied,
            sharded.counters().updates_applied);
  EXPECT_EQ(serial.counters().updates_stale, sharded.counters().updates_stale);
  EXPECT_EQ(serial.counters().handoffs, sharded.counters().handoffs);
  EXPECT_EQ(snapshot(serial), snapshot(sharded));
}

TEST(ShardedDirectory, MixedBatchSurvivesMemoRehash) {
  // Regression: phase A caches pointers into the per-user memo; the
  // pre-phase-B reserve for a batch's new users can rehash the memo and
  // leave every cached pointer for an *existing* user dangling.  A batch
  // mixing returning users with enough first-time users to force growth
  // must still apply cleanly (ASan turns the stale pointers into a hard
  // failure; in plain builds the seq guard reads garbage).
  QuadrantFixture fx;
  ShardedDirectory dir(fx.partition, {.shards = 4});

  std::vector<LocationRecord> first;
  for (std::uint32_t u = 1; u <= 100; ++u) {
    first.push_back(rec(u, 1.0 + (u % 60), 1.0 + (u % 60), 1));
  }
  dir.apply_updates(first);
  ASSERT_EQ(dir.counters().updates_applied, 100u);

  // Returning users first (their memo pointers get cached), then enough
  // new users that reserve() must grow the table under those pointers.
  std::vector<LocationRecord> mixed;
  for (std::uint32_t u = 1; u <= 100; ++u) {
    mixed.push_back(rec(u, 2.0 + (u % 60), 2.0 + (u % 60), 2));
  }
  for (std::uint32_t u = 101; u <= 4100; ++u) {
    mixed.push_back(rec(u, 1.0 + (u % 62), 1.0 + (u % 62), 1));
  }
  dir.apply_updates(mixed);

  EXPECT_EQ(dir.counters().updates_applied, 100u + mixed.size());
  EXPECT_EQ(dir.counters().updates_stale, 0u);
  for (std::uint32_t u : {1u, 50u, 100u}) {
    const auto found = dir.locate(UserId{u});
    ASSERT_TRUE(found.has_value());
    EXPECT_EQ(found->seq, 2u);
    EXPECT_EQ(found->position.x, 2.0 + (u % 60));
  }
  EXPECT_TRUE(dir.locate(UserId{4100}).has_value());
}

/// Independent reference for the ingest rules, one record at a time: the
/// region is the partition's cold locate, a record applies iff its seq
/// exceeds the user's last applied seq, and an applied record whose region
/// differs from the user's previous one is a handoff.
struct IngestOracle {
  const overlay::Partition& partition;
  std::map<UserId, std::pair<LocationRecord, RegionId>> users;
  ShardedDirectory::Counters counters;

  void apply(const LocationRecord& r) {
    const RegionId region = partition.locate(r.position);
    const auto it = users.find(r.user);
    if (it != users.end() && r.seq <= it->second.first.seq) {
      ++counters.updates_stale;
      return;
    }
    if (it != users.end() && it->second.second != region) ++counters.handoffs;
    users[r.user] = {r, region};
    ++counters.updates_applied;
  }
};

TEST(ShardedDirectory, MatchesPerRecordOracle) {
  // Batched ingestion at K=1 and K=8 must agree with the per-record oracle
  // on the counters and on every user's record and region, including after
  // replaying an old batch and re-sending the newest one (equal seqs).
  QuadrantFixture fx;
  auto batches = make_trace(200, 30, 21);
  // The walk rarely leaves a quadrant, so end it with every user jumping to
  // the point mirrored through the plane's center: a handoff each.
  std::vector<LocationRecord> mirrored = batches.back();
  for (auto& r : mirrored) {
    r.position = {kPlane.right() - r.position.x, kPlane.top() - r.position.y};
    ++r.seq;
  }
  batches.push_back(std::move(mirrored));
  IngestOracle oracle{fx.partition, {}, {}};
  for (const auto& batch : batches) {
    for (const auto& r : batch) oracle.apply(r);
  }
  for (const auto* replay : {&batches[5], &batches.back()}) {
    for (const auto& r : *replay) oracle.apply(r);
  }
  ASSERT_EQ(oracle.counters.updates_stale, 400u);
  ASSERT_GT(oracle.counters.handoffs, 150u);

  for (const std::size_t k : {1u, 8u}) {
    ShardedDirectory dir(fx.partition, {.shards = k});
    for (const auto& batch : batches) dir.apply_updates(batch);
    dir.apply_updates(batches[5]);
    dir.apply_updates(batches.back());

    EXPECT_EQ(dir.counters().updates_applied,
              oracle.counters.updates_applied) << "K=" << k;
    EXPECT_EQ(dir.counters().updates_stale, oracle.counters.updates_stale)
        << "K=" << k;
    EXPECT_EQ(dir.counters().handoffs, oracle.counters.handoffs)
        << "K=" << k;
    EXPECT_EQ(dir.size(), oracle.users.size()) << "K=" << k;
    for (const auto& [user, entry] : oracle.users) {
      EXPECT_EQ(dir.locate(user), entry.first) << "K=" << k << " " << user;
      EXPECT_EQ(dir.region_of(user), entry.second) << "K=" << k << " " << user;
    }
  }
}

TEST(ShardedDirectory, SameBatchHandoffDanceKeepsNewestRecord) {
  // A user crossing A -> B -> back to A inside one batch: the eviction
  // messages must drain in dispatch order so the seq-3 record survives in
  // A and B ends up empty.
  QuadrantFixture fx;
  ShardedDirectory dir(fx.partition, {.shards = 8});
  const std::vector<LocationRecord> batch = {
      rec(1, 10.0, 10.0, 1), rec(1, 50.0, 50.0, 2), rec(1, 11.0, 11.0, 3)};
  dir.apply_updates(batch);

  EXPECT_EQ(dir.counters().updates_applied, 3u);
  EXPECT_EQ(dir.counters().handoffs, 2u);
  const auto located = dir.locate(UserId{1});
  ASSERT_TRUE(located.has_value());
  EXPECT_EQ(located->position, (Point{11.0, 11.0}));
  EXPECT_EQ(located->seq, 3u);

  const RegionId home = fx.partition.locate(Point{11.0, 11.0});
  const RegionId away = fx.partition.locate(Point{50.0, 50.0});
  EXPECT_EQ(dir.region_of(UserId{1}), home);
  ASSERT_NE(dir.store(home), nullptr);
  EXPECT_EQ(dir.store(home)->size(), 1u);
  ASSERT_NE(dir.store(away), nullptr);
  EXPECT_EQ(dir.store(away)->size(), 0u);
}

TEST(ShardedDirectory, SeqGuardFiltersStaleAndReplayedRecords) {
  QuadrantFixture fx;
  ShardedDirectory dir(fx.partition, {.shards = 4});
  const std::vector<LocationRecord> batch = {
      rec(1, 10.0, 10.0, 5),
      rec(1, 11.0, 11.0, 5),   // replay of the same seq
      rec(1, 50.0, 50.0, 4)};  // reordered older report, crossing
  dir.apply_updates(batch);
  EXPECT_EQ(dir.counters().updates_applied, 1u);
  EXPECT_EQ(dir.counters().updates_stale, 2u);
  EXPECT_EQ(dir.counters().handoffs, 0u);
  EXPECT_EQ(dir.locate(UserId{1})->position, (Point{10.0, 10.0}));
}

TEST(ShardedDirectory, ApplyUpdateReportsAppliedHandoffAndRegion) {
  QuadrantFixture fx;
  ShardedDirectory dir(fx.partition, {.shards = 2});
  const auto first = dir.apply_update(rec(1, 10.0, 10.0, 1));
  EXPECT_TRUE(first.applied);
  EXPECT_FALSE(first.handoff);
  EXPECT_EQ(first.region, fx.partition.locate(Point{10.0, 10.0}));

  const auto crossed = dir.apply_update(rec(1, 50.0, 50.0, 2));
  EXPECT_TRUE(crossed.applied);
  EXPECT_TRUE(crossed.handoff);
  EXPECT_EQ(crossed.region, fx.partition.locate(Point{50.0, 50.0}));

  const auto stale = dir.apply_update(rec(1, 20.0, 20.0, 2));
  EXPECT_FALSE(stale.applied);
  EXPECT_FALSE(stale.handoff);
  EXPECT_EQ(dir.size(), 1u);
}

TEST(ShardedDirectory, RoutesRecordsToCoveringRegion) {
  QuadrantFixture fx;
  ShardedDirectory dir(fx.partition, {.shards = 1});
  const auto res = dir.apply_update(rec(1, 10.0, 10.0));
  EXPECT_TRUE(res.applied);
  EXPECT_FALSE(res.handoff);
  EXPECT_EQ(res.region, fx.partition.locate(Point{10.0, 10.0}));
  ASSERT_TRUE(dir.locate(UserId{1}).has_value());
  EXPECT_EQ(dir.region_of(UserId{1}), res.region);
  EXPECT_EQ(dir.size(), 1u);
}

TEST(ShardedDirectory, BoundaryCrossingCountsAsHandoff) {
  QuadrantFixture fx;
  ShardedDirectory dir(fx.partition, {.shards = 1});
  EXPECT_TRUE(dir.apply_update(rec(1, 10.0, 10.0, 1)).applied);
  const RegionId first = dir.region_of(UserId{1});
  const auto crossed = dir.apply_update(rec(1, 50.0, 50.0, 2));
  EXPECT_TRUE(crossed.applied);
  EXPECT_TRUE(crossed.handoff);
  EXPECT_NE(crossed.region, first);
  EXPECT_EQ(dir.counters().handoffs, 1u);
  // The old region's store no longer holds the user.
  ASSERT_NE(dir.store(first), nullptr);
  EXPECT_FALSE(dir.store(first)->locate(UserId{1}).has_value());
  EXPECT_EQ(dir.size(), 1u);
}

TEST(ShardedDirectory, StaleUpdatesAreCountedNotApplied) {
  // The seq guard on a serial directory, one report per call.
  QuadrantFixture fx;
  ShardedDirectory dir(fx.partition, {.shards = 1});
  EXPECT_TRUE(dir.apply_update(rec(1, 10.0, 10.0, 5)).applied);
  EXPECT_FALSE(dir.apply_update(rec(1, 11.0, 11.0, 5)).applied);
  EXPECT_FALSE(dir.apply_update(rec(1, 50.0, 50.0, 4)).applied);  // crossing
  EXPECT_EQ(dir.counters().updates_stale, 2u);
  EXPECT_EQ(dir.locate(UserId{1})->position, (Point{10.0, 10.0}));
}

TEST(ShardedDirectory, RangeAndKNearestSpanRegions) {
  QuadrantFixture fx;
  ShardedDirectory dir(fx.partition, {.shards = 1});
  // A cluster straddling the center point of the plane: one user per
  // quadrant, a stone's throw from (32, 32), plus one far away.
  dir.apply_updates(std::vector<LocationRecord>{
      rec(1, 31.0, 31.0), rec(2, 33.0, 31.0), rec(3, 31.0, 33.0),
      rec(4, 33.0, 33.0), rec(5, 60.0, 60.0)});
  ASSERT_EQ(dir.counters().updates_applied, 5u);
  EXPECT_EQ(dir.range(Rect{30.0, 30.0, 4.0, 4.0}).size(), 4u);
  const auto nearest = dir.k_nearest(Point{32.0, 32.0}, 4);
  ASSERT_EQ(nearest.size(), 4u);
  for (const auto& r : nearest) EXPECT_NE(r.user, UserId{5});
}

TEST(ShardedDirectory, FleetOfUsersStaysConsistentUnderMotion) {
  QuadrantFixture fx;
  ShardedDirectory dir(fx.partition, {.shards = 1});
  UserPopulation::Options opt;
  opt.max_pause = 2.0;
  UserPopulation pop(200, opt, nullptr, Rng(21));
  double now = 0.0;
  for (int step = 0; step < 50; ++step) {
    now += 1.0;
    pop.step(1.0, now);
    for (auto& u : pop.users()) {
      EXPECT_TRUE(dir.apply_update({u.id, u.position, u.next_seq++, now})
                      .applied);
    }
  }
  EXPECT_EQ(dir.size(), 200u);
  EXPECT_EQ(dir.counters().updates_applied, 200u * 50u);
  // Every user is locatable and stored in the region covering its position.
  for (const auto& u : pop.users()) {
    const auto stored = dir.locate(u.id);
    ASSERT_TRUE(stored.has_value());
    EXPECT_EQ(stored->position, u.position);
    EXPECT_EQ(dir.region_of(u.id), fx.partition.locate(u.position));
  }
  // The whole-plane range scan sees exactly the population.
  EXPECT_EQ(dir.range(kPlane).size(), 200u);
}

TEST(ShardedDirectory, FastPathEngagesOnRepeatReports) {
  // Second report from inside the same region must resolve via the rect
  // memo, not a partition walk.
  QuadrantFixture fx;
  ShardedDirectory dir(fx.partition, {.shards = 1});
  dir.apply_update(rec(1, 10.0, 10.0, 1));
  EXPECT_EQ(dir.counters().locate_fast_path, 0u);  // first report is cold
  dir.apply_update(rec(1, 10.5, 10.5, 2));
  EXPECT_EQ(dir.counters().locate_fast_path, 1u);
  dir.apply_update(rec(1, 50.0, 50.0, 3));  // crossing: memo rect misses
  EXPECT_EQ(dir.counters().locate_fast_path, 1u);
  EXPECT_EQ(dir.counters().handoffs, 1u);
}

TEST(ShardedDirectory, ObservesPartitionSplitsBetweenBatches) {
  // The rect memo must be invalidated by geometry changes: after a split,
  // reports land in the new covering region, not the memoized old one.
  overlay::Partition partition(kPlane);
  const NodeId a = partition.add_node({NodeId{1}, Point{10, 10}, 10.0});
  const RegionId root = partition.create_root(a);
  ShardedDirectory dir(partition, {.shards = 2});
  EXPECT_TRUE(dir.apply_update(rec(1, 50.0, 50.0, 1)).applied);
  EXPECT_EQ(dir.region_of(UserId{1}), root);

  const NodeId b = partition.add_node({NodeId{2}, Point{50, 50}, 10.0});
  partition.split(root, b);
  EXPECT_TRUE(dir.apply_update(rec(1, 50.5, 50.5, 2)).applied);
  const RegionId covering = partition.locate(Point{50.5, 50.5});
  EXPECT_EQ(dir.region_of(UserId{1}), covering);
  ASSERT_TRUE(dir.locate(UserId{1}).has_value());
  EXPECT_EQ(dir.locate(UserId{1})->seq, 2u);
  // If the user changed regions, the old store must have evicted it.
  if (covering != root) {
    ASSERT_NE(dir.store(root), nullptr);
    EXPECT_EQ(dir.store(root)->size(), 0u);
  }
}

TEST(ShardedDirectory, DeltaTrackingRecordsAppliedUsersPerEpoch) {
  QuadrantFixture fx;
  ShardedDirectory dir(fx.partition, {.shards = 4, .track_deltas = true});
  ASSERT_TRUE(dir.tracks_deltas());

  dir.apply_updates(std::vector<LocationRecord>{
      rec(3, 10, 10, 1), rec(1, 10, 10, 1), rec(2, 50, 50, 1)});
  // Epoch 2: one applied record; the seq-replay must not dirty user 2.
  dir.apply_updates(std::vector<LocationRecord>{
      rec(1, 11, 11, 2), rec(2, 50, 50, 1)});

  ASSERT_EQ(dir.epoch_deltas().size(), 2u);
  EXPECT_EQ(dir.epoch_deltas()[0].epoch, 1u);
  EXPECT_EQ(dir.epoch_deltas()[1].epoch, 2u);
  EXPECT_EQ(dir.epoch_deltas()[1].users,
            (std::vector<UserId>{UserId{1}}));

  const auto all = dir.changed_since(0);
  ASSERT_TRUE(all.has_value());  // sorted + deduplicated union
  EXPECT_EQ(*all, (std::vector<UserId>{UserId{1}, UserId{2}, UserId{3}}));
  const auto recent = dir.changed_since(1);
  ASSERT_TRUE(recent.has_value());
  EXPECT_EQ(*recent, (std::vector<UserId>{UserId{1}}));
  const auto none = dir.changed_since(dir.ingest_epoch());
  ASSERT_TRUE(none.has_value());
  EXPECT_TRUE(none->empty());
}

TEST(ShardedDirectory, DeltaIsShardCountInvariant) {
  QuadrantFixture fx;
  ShardedDirectory serial(fx.partition, {.shards = 1, .track_deltas = true});
  ShardedDirectory sharded(fx.partition, {.shards = 8, .track_deltas = true});
  for (const auto& batch : make_trace(200, 10, 31)) {
    serial.apply_updates(batch);
    sharded.apply_updates(batch);
  }
  for (std::uint64_t since = 0; since <= 10; ++since) {
    const auto a = serial.changed_since(since);
    const auto b = sharded.changed_since(since);
    ASSERT_TRUE(a.has_value());
    ASSERT_TRUE(b.has_value());
    EXPECT_EQ(*a, *b) << "since=" << since;
  }
}

TEST(ShardedDirectory, DeltaSurvivesCowSliceSharingAcrossPublishes) {
  // Consecutive snapshots share the frozen slice bodies no write touched
  // in between, and the dirty-user tracking must stay correct across that
  // sharing — the second snapshot's delta names exactly the users
  // re-ingested after the first publish, while untouched shard slices
  // remain the same objects in both snapshots.
  QuadrantFixture fx;
  constexpr std::size_t kShards = 8;
  ShardedDirectory dir(fx.partition,
                       {.shards = kShards, .track_deltas = true});

  // Epoch 1: one user per quadrant.
  dir.apply_updates(std::vector<LocationRecord>{
      rec(1, 10, 10, 1), rec(2, 10, 50, 1), rec(3, 50, 10, 1),
      rec(4, 50, 50, 1)});
  const auto s1 = dir.publish_snapshot();
  ASSERT_NE(s1, nullptr);
  EXPECT_EQ(s1->epoch(), 1u);
  ASSERT_TRUE(s1->has_delta());  // first publish: delta since epoch 0
  EXPECT_EQ(s1->delta_base_epoch(), 0u);
  EXPECT_EQ(std::vector<UserId>(s1->delta().begin(), s1->delta().end()),
            (std::vector<UserId>{UserId{1}, UserId{2}, UserId{3}, UserId{4}}));

  // Epoch 2: only user 1 moves (within its quadrant — no handoff), so only
  // that region's shard is dirtied.
  dir.apply_updates(std::vector<LocationRecord>{rec(1, 12, 12, 2)});
  const auto s2 = dir.publish_snapshot();
  EXPECT_EQ(s2->epoch(), 2u);
  ASSERT_TRUE(s2->has_delta());
  EXPECT_EQ(s2->delta_base_epoch(), s1->epoch());
  EXPECT_EQ(std::vector<UserId>(s2->delta().begin(), s2->delta().end()),
            (std::vector<UserId>{UserId{1}}));

  // Frozen bodies are never written: the first snapshot still reads the
  // epoch-1 world, and its delta stamp did not change retroactively.
  ASSERT_TRUE(s1->locate(UserId{1}).has_value());
  EXPECT_EQ(s1->locate(UserId{1})->position, (Point{10.0, 10.0}));
  EXPECT_EQ(s2->locate(UserId{1})->position, (Point{12.0, 12.0}));
  EXPECT_EQ(s1->delta().size(), 4u);

  // Shared bodies: every region whose shard was not dirtied by the
  // epoch-2 write is served by the *same* frozen store object in both
  // snapshots.
  const RegionId moved = fx.partition.locate(Point{12.0, 12.0});
  const std::size_t dirty_shard = shard_of_region(moved, kShards);
  std::size_t shared_regions = 0;
  for (std::uint32_t u = 2; u <= 4; ++u) {
    const RegionId r = dir.region_of(UserId{u});
    if (shard_of_region(r, kShards) == dirty_shard) continue;
    EXPECT_EQ(s1->store(r), s2->store(r))
        << "slice not shared for region " << r.value;
    ++shared_regions;
  }
  EXPECT_GT(shared_regions, 0u);  // the fixture must actually share a slice

  // And tracking keeps working after the shared publish: a third epoch's
  // delta is relative to s2, not polluted by the shared history.
  dir.apply_updates(std::vector<LocationRecord>{rec(4, 51, 51, 2)});
  const auto s3 = dir.publish_snapshot();
  EXPECT_EQ(s3->delta_base_epoch(), s2->epoch());
  EXPECT_EQ(std::vector<UserId>(s3->delta().begin(), s3->delta().end()),
            (std::vector<UserId>{UserId{4}}));
}

TEST(ShardedDirectory, DeltaRetentionTrimsOldestAndChangedSinceFallsBack) {
  QuadrantFixture fx;
  ShardedDirectory dir(
      fx.partition,
      {.shards = 2, .track_deltas = true, .delta_retention = 2});
  for (std::uint64_t e = 1; e <= 4; ++e) {
    dir.apply_updates(std::vector<LocationRecord>{
        rec(static_cast<std::uint32_t>(e), 10, 10, 1)});
  }
  EXPECT_EQ(dir.epoch_deltas().size(), 2u);
  EXPECT_EQ(dir.delta_floor(), 2u);  // epochs 1 and 2 discarded
  EXPECT_FALSE(dir.changed_since(0).has_value());  // predates retained history
  EXPECT_FALSE(dir.changed_since(1).has_value());
  const auto from_floor = dir.changed_since(2);
  ASSERT_TRUE(from_floor.has_value());
  EXPECT_EQ(*from_floor, (std::vector<UserId>{UserId{3}, UserId{4}}));
}

TEST(ShardedDirectory, TrimDeltasRaisesFloor) {
  QuadrantFixture fx;
  ShardedDirectory dir(fx.partition, {.shards = 2, .track_deltas = true});
  for (std::uint64_t e = 1; e <= 3; ++e) {
    dir.apply_updates(std::vector<LocationRecord>{
        rec(static_cast<std::uint32_t>(e), 10, 10, 1)});
  }
  dir.trim_deltas(2);
  EXPECT_EQ(dir.delta_floor(), 2u);
  EXPECT_EQ(dir.epoch_deltas().size(), 1u);
  EXPECT_FALSE(dir.changed_since(1).has_value());
  ASSERT_TRUE(dir.changed_since(2).has_value());
  EXPECT_EQ(*dir.changed_since(2), (std::vector<UserId>{UserId{3}}));
}

TEST(ShardedDirectory, DeltasOffByDefault) {
  QuadrantFixture fx;
  ShardedDirectory dir(fx.partition, {.shards = 2});
  EXPECT_FALSE(dir.tracks_deltas());
  dir.apply_updates(std::vector<LocationRecord>{rec(1, 10, 10, 1)});
  EXPECT_TRUE(dir.epoch_deltas().empty());
  EXPECT_FALSE(dir.changed_since(0).has_value());
  const auto snap = dir.publish_snapshot();
  EXPECT_FALSE(snap->has_delta());
  EXPECT_TRUE(snap->delta().empty());
}

TEST(ShardedDirectory, DefaultShardCountUsesHardware) {
  QuadrantFixture fx;
  ShardedDirectory dir(fx.partition);  // shards = 0 -> hardware threads
  EXPECT_GE(dir.shard_count(), 1u);
  for (const auto& batch : make_trace(50, 5, 9)) dir.apply_updates(batch);
  EXPECT_EQ(dir.size(), 50u);
}

// --- Region migration (adaptation support) ------------------------------

/// Three users per quadrant at known points; user ids 1..12 with SE users
/// being 4, 5, 6 (the quadrant retired by the merge tests below).  The SW
/// users sit at y > 16 so the depth-2 split of that quadrant (cut line
/// y = 16) strands all three in the new high half — and nobody lies
/// exactly on a split line, where cover is legitimately ambiguous (covers()
/// is closed on the high edge, so boundary records stay with their hinted
/// region while a hint-less rebuild may home them across the line).
std::vector<LocationRecord> quadrant_population() {
  std::vector<LocationRecord> batch;
  std::uint32_t id = 1;
  for (const Point c : {Point{16, 19}, Point{48, 16}, Point{16, 48},
                        Point{48, 48}}) {
    for (int k = 0; k < 3; ++k) {
      batch.push_back(rec(id++, c.x + k, c.y + k));
    }
  }
  return batch;
}

TEST(ShardedDirectory, MigrateRegionsRehomesRecordsAfterMerge) {
  QuadrantFixture fx;
  ShardedDirectory dir(fx.partition, {.shards = 4, .track_deltas = true});
  dir.apply_updates(quadrant_population());

  const RegionId sw = fx.partition.locate({16, 16});
  const RegionId se = fx.partition.locate({48, 16});
  fx.partition.merge(sw, se);  // SE retired; its records are now misplaced

  const auto rpt = dir.migrate_regions();
  EXPECT_TRUE(rpt.complete());
  EXPECT_EQ(rpt.moved, 3u);  // exactly the SE users
  EXPECT_EQ(rpt.dropped, 0u);
  EXPECT_EQ(rpt.stores_retired, 1u);
  EXPECT_GE(rpt.scanned, 12u);
  EXPECT_EQ(dir.counters().migration_passes, 1u);
  EXPECT_EQ(dir.counters().migrated_records, 3u);

  // Everyone is still locatable, and the migrated users now live in the
  // widened region.
  for (std::uint32_t u = 1; u <= 12; ++u) {
    EXPECT_TRUE(dir.locate(UserId{u}).has_value()) << "user " << u;
  }
  for (std::uint32_t u = 4; u <= 6; ++u) {
    EXPECT_EQ(dir.region_of(UserId{u}), sw) << "user " << u;
  }

  // Migration is snapshot-consistent: byte-identical to a directory built
  // from scratch on the merged partition from the same records.
  ShardedDirectory rebuilt(fx.partition, {.shards = 1});
  rebuilt.apply_updates(quadrant_population());
  EXPECT_EQ(snapshot(dir), snapshot(rebuilt));
}

TEST(ShardedDirectory, ChangedSinceReportsUsersVanishedViaMigration) {
  // A consumer diffing epochs must learn that the SE users' records moved
  // even though no update for them was ingested: migration pushes its own
  // epoch delta.
  QuadrantFixture fx;
  ShardedDirectory dir(fx.partition, {.shards = 4, .track_deltas = true});
  dir.apply_updates(quadrant_population());
  const std::uint64_t before = dir.ingest_epoch();

  const RegionId sw = fx.partition.locate({16, 16});
  fx.partition.merge(sw, fx.partition.locate({48, 16}));
  dir.migrate_regions();

  EXPECT_EQ(dir.ingest_epoch(), before + 1);  // migration is an epoch
  const auto delta = dir.changed_since(before);
  ASSERT_TRUE(delta.has_value());
  EXPECT_EQ(*delta,
            (std::vector<UserId>{UserId{4}, UserId{5}, UserId{6}}));
  ASSERT_FALSE(dir.epoch_deltas().empty());
  EXPECT_EQ(dir.epoch_deltas().back().epoch, before + 1);

  // A published snapshot after migration reflects the new homes.
  const auto snap = dir.publish_snapshot();
  EXPECT_EQ(snap->epoch(), dir.ingest_epoch());
  net::Writer a, b;
  snap->serialize(a);
  dir.serialize(b);
  EXPECT_EQ(a.bytes(), b.bytes());
}

TEST(ShardedDirectory, MigrationNoOpWhenNothingMisplaced) {
  QuadrantFixture fx;
  ShardedDirectory dir(fx.partition, {.shards = 2, .track_deltas = true});
  dir.apply_updates(quadrant_population());
  const std::uint64_t epoch = dir.ingest_epoch();
  const auto deltas = dir.epoch_deltas().size();

  const auto rpt = dir.migrate_regions();
  EXPECT_TRUE(rpt.complete());
  EXPECT_EQ(rpt.moved, 0u);
  EXPECT_EQ(rpt.stores_retired, 0u);
  EXPECT_EQ(dir.ingest_epoch(), epoch);  // no work -> no epoch, no delta
  EXPECT_EQ(dir.epoch_deltas().size(), deltas);
}

TEST(ShardedDirectory, MigrationFilterDropLeavesRecordForRetry) {
  // A vetoed transfer (the dropped-message fault) must not lose the
  // record: it stays in the old store, still locatable, and a later clean
  // pass completes the migration.
  QuadrantFixture fx;
  ShardedDirectory dir(fx.partition, {.shards = 4, .track_deltas = true});
  dir.apply_updates(quadrant_population());
  const RegionId sw = fx.partition.locate({16, 16});
  const RegionId se = fx.partition.locate({48, 16});
  fx.partition.merge(sw, se);

  const auto first = dir.migrate_regions(
      [](UserId user, RegionId, RegionId) { return user != UserId{5}; });
  EXPECT_FALSE(first.complete());
  EXPECT_EQ(first.moved, 2u);
  EXPECT_EQ(first.dropped, 1u);
  EXPECT_EQ(first.stores_retired, 0u);  // old store still holds user 5
  EXPECT_EQ(dir.counters().migration_dropped, 1u);
  ASSERT_TRUE(dir.locate(UserId{5}).has_value());
  EXPECT_EQ(dir.region_of(UserId{5}), se);  // left in place, not lost

  const auto retry = dir.migrate_regions();
  EXPECT_TRUE(retry.complete());
  EXPECT_EQ(retry.moved, 1u);
  EXPECT_EQ(retry.stores_retired, 1u);
  EXPECT_EQ(dir.region_of(UserId{5}), sw);

  ShardedDirectory rebuilt(fx.partition, {.shards = 1});
  rebuilt.apply_updates(quadrant_population());
  EXPECT_EQ(snapshot(dir), snapshot(rebuilt));
}

TEST(ShardedDirectory, MigrationIsShardCountInvariant) {
  // The determinism contract extends to migration: the same trace, merge
  // and migration through K=1 and K=8 leave byte-identical stores and the
  // same migration report.
  QuadrantFixture fx1, fx8;
  ShardedDirectory serial(fx1.partition, {.shards = 1, .track_deltas = true});
  ShardedDirectory sharded(fx8.partition, {.shards = 8, .track_deltas = true});
  for (const auto& batch : make_trace(200, 10, 55)) {
    serial.apply_updates(batch);
    sharded.apply_updates(batch);
  }
  for (auto* fx : {&fx1, &fx8}) {
    fx->partition.merge(fx->partition.locate({16, 16}),
                        fx->partition.locate({48, 16}));
  }
  const auto a = serial.migrate_regions();
  const auto b = sharded.migrate_regions();
  EXPECT_EQ(a.moved, b.moved);
  EXPECT_EQ(a.stores_retired, b.stores_retired);
  EXPECT_EQ(snapshot(serial), snapshot(sharded));
  const auto da = serial.changed_since(serial.ingest_epoch() - 1);
  const auto db = sharded.changed_since(sharded.ingest_epoch() - 1);
  ASSERT_TRUE(da.has_value());
  ASSERT_TRUE(db.has_value());
  EXPECT_EQ(*da, *db);
}

TEST(ShardedDirectory, MigrationAfterSplitMovesOnlyTheSplitHalf) {
  // Splitting a region strands the records of the half that moved to the
  // new region; everyone else must be untouched.
  QuadrantFixture fx;
  ShardedDirectory dir(fx.partition, {.shards = 4, .track_deltas = true});
  dir.apply_updates(quadrant_population());

  const RegionId sw = fx.partition.locate({16, 16});
  const NodeId extra = fx.partition.add_node({NodeId{9}, Point{20, 20}, 10.0});
  fx.partition.split(sw, extra);

  const auto rpt = dir.migrate_regions();
  EXPECT_TRUE(rpt.complete());
  EXPECT_GT(rpt.moved, 0u);
  EXPECT_LE(rpt.moved, 3u);  // at most the SW users
  EXPECT_EQ(rpt.stores_retired, 0u);  // split retires nothing

  ShardedDirectory rebuilt(fx.partition, {.shards = 1});
  rebuilt.apply_updates(quadrant_population());
  EXPECT_EQ(snapshot(dir), snapshot(rebuilt));
}

// --- Publication: frozen bodies, recycled by op replay -------------------

/// make_trace where, after a first tick that places everyone, a rotating
/// quarter of the users report: an epoch's ops stay well under a body's
/// records, so steady-state publishes recycle instead of cloning.
std::vector<std::vector<LocationRecord>> quarter_trace(std::size_t users,
                                                       int ticks,
                                                       std::uint64_t seed) {
  std::vector<std::vector<LocationRecord>> batches =
      make_trace(users, ticks, seed);
  for (std::size_t t = 1; t < batches.size(); ++t) {
    std::vector<LocationRecord> quarter;
    for (std::size_t i = t % 4; i < batches[t].size(); i += 4) {
      quarter.push_back(batches[t][i]);
    }
    batches[t] = std::move(quarter);
  }
  return batches;
}

std::vector<std::byte> image(const DirectorySnapshot& snap) {
  net::Writer w;
  snap.serialize(w);
  return std::move(w).take();
}

/// The snapshot's user map answers like the reference directory's for
/// users 1..n (region and record), so a recycled user map replayed right.
void expect_same_users(const DirectorySnapshot& snap,
                       const ShardedDirectory& ref, std::uint32_t n) {
  EXPECT_EQ(snap.size(), ref.size());
  for (std::uint32_t u = 1; u <= n; ++u) {
    EXPECT_EQ(snap.region_of(UserId{u}), ref.region_of(UserId{u}));
    EXPECT_EQ(snap.locate(UserId{u}), ref.locate(UserId{u})) << "user " << u;
  }
}

TEST(ShardedDirectory, RecycledPublishesMatchANeverPublishedDirectory) {
  // Publishing after every epoch freezes the writer's bodies and recycles
  // the previous snapshot's by replay.  The snapshot, the directory and a
  // directory fed the same trace that never publishes must stay
  // byte-identical for K=1 and K=8; past the first write after the first
  // publish (nothing to recycle yet), every write recycles.
  for (const std::size_t shards : {std::size_t{1}, std::size_t{8}}) {
    QuadrantFixture fx;
    ShardedDirectory dir(fx.partition, {.shards = shards});
    ShardedDirectory ref(fx.partition, {.shards = shards});
    std::uint64_t cloned_at_second = 0;
    int epoch = 0;
    for (const auto& batch : quarter_trace(400, 30, 21)) {
      dir.apply_updates(batch);
      ref.apply_updates(batch);
      const auto snap = dir.publish_snapshot();
      EXPECT_EQ(image(*snap), snapshot(dir)) << "K=" << shards;
      EXPECT_EQ(snapshot(dir), snapshot(ref)) << "K=" << shards;
      expect_same_users(*snap, ref, 400);
      if (++epoch == 2) {
        cloned_at_second = dir.counters().snapshot_slices_cloned;
      }
    }
    EXPECT_GT(cloned_at_second, 0u);
    EXPECT_EQ(dir.counters().snapshot_slices_cloned, cloned_at_second);
    EXPECT_GT(dir.counters().snapshot_slices_recycled, 0u);
    EXPECT_EQ(ref.counters().snapshot_slices_recycled, 0u);
    EXPECT_EQ(ref.counters().snapshot_slices_cloned, 0u);
  }
}

TEST(ShardedDirectory, SnapshotOutlivesItsDirectory) {
  // A released body goes back to its directory's pool; once the directory
  // is gone, the last snapshot's release must free the bodies instead
  // (ASan reports a leak or a use after free otherwise).
  QuadrantFixture fx;
  std::shared_ptr<const DirectorySnapshot> kept;
  std::vector<std::byte> want;
  {
    ShardedDirectory dir(fx.partition, {.shards = 2});
    for (const auto& batch : quarter_trace(200, 4, 26)) {
      dir.apply_updates(batch);
      kept = dir.publish_snapshot();
    }
    want = snapshot(dir);
  }
  EXPECT_EQ(image(*kept), want);
  EXPECT_TRUE(kept->locate(UserId{1}).has_value());
  kept.reset();
}

TEST(ShardedDirectory, HeldSnapshotForcesCloneNotWrite) {
  // A previous snapshot still held across the next write pins its bodies:
  // the writer must clone the current ones and leave the held ones as they
  // were frozen.
  QuadrantFixture fx;
  ShardedDirectory dir(fx.partition, {.shards = 2});
  ShardedDirectory ref(fx.partition, {.shards = 2});
  const auto trace = quarter_trace(300, 8, 22);
  for (int t = 0; t < 4; ++t) {
    dir.apply_updates(trace[t]);
    ref.apply_updates(trace[t]);
    (void)dir.publish_snapshot();
  }
  const auto held = dir.publish_snapshot();
  const std::vector<std::byte> held_image = image(*held);

  dir.apply_updates(trace[4]);  // the spare is free: recycles
  ref.apply_updates(trace[4]);
  (void)dir.publish_snapshot();  // its spare is `held`'s body
  const ShardedDirectory::Counters before = dir.counters();
  dir.apply_updates(trace[5]);
  ref.apply_updates(trace[5]);
  EXPECT_GT(dir.counters().snapshot_slices_cloned,
            before.snapshot_slices_cloned);
  EXPECT_EQ(dir.counters().snapshot_slices_recycled,
            before.snapshot_slices_recycled);

  EXPECT_EQ(image(*held), held_image);  // never written
  EXPECT_EQ(held->epoch(), 4u);
  const auto snap = dir.publish_snapshot();
  EXPECT_EQ(image(*snap), snapshot(ref));
  expect_same_users(*snap, ref, 300);
}

TEST(ShardedDirectory, LogOutgrowingTheBodyFallsBackToClone) {
  // Many batches between publishes: once the op log outgrows the body,
  // replaying it would cost more than a copy, so the writer drops it and
  // the next write after the publish clones.
  QuadrantFixture fx;
  ShardedDirectory dir(fx.partition, {.shards = 1});
  ShardedDirectory ref(fx.partition, {.shards = 1});
  const auto trace = make_trace(200, 16, 23);  // every user, every tick
  for (int t = 0; t < 3; ++t) {
    dir.apply_updates(trace[t]);
    ref.apply_updates(trace[t]);
    (void)dir.publish_snapshot();
  }
  for (int t = 3; t < 15; ++t) {  // 12 epochs: ~12x the body in ops
    dir.apply_updates(trace[t]);
    ref.apply_updates(trace[t]);
  }
  (void)dir.publish_snapshot();
  const ShardedDirectory::Counters before = dir.counters();
  dir.apply_updates(trace[15]);
  ref.apply_updates(trace[15]);
  // The shard's log outgrew its records and is cloned; the user map's log
  // (one memo op per report, 12x its entries) too.
  EXPECT_EQ(dir.counters().snapshot_slices_cloned,
            before.snapshot_slices_cloned + 2);
  EXPECT_EQ(dir.counters().snapshot_slices_recycled,
            before.snapshot_slices_recycled);
  const auto snap = dir.publish_snapshot();
  EXPECT_EQ(image(*snap), snapshot(ref));
  expect_same_users(*snap, ref, 200);
}

TEST(ShardedDirectory, MigrationBetweenPublishesIsReplayed) {
  // A migrate_regions pass between publishes writes through the same
  // bodies: its evictions, ingests, memo moves and store retirement are
  // logged like a batch's and replayed onto the recycled body.
  QuadrantFixture fx;
  ShardedDirectory dir(fx.partition, {.shards = 1});
  ShardedDirectory ref(fx.partition, {.shards = 1});
  const auto trace = quarter_trace(400, 4, 24);
  for (int t = 0; t < 3; ++t) {  // the second write clones, the third recycles
    dir.apply_updates(trace[t]);
    ref.apply_updates(trace[t]);
    (void)dir.publish_snapshot();
  }
  const ShardedDirectory::Counters before = dir.counters();

  const RegionId se = fx.partition.locate({48, 16});
  fx.partition.merge(fx.partition.locate({16, 16}), se);
  const auto moved = dir.migrate_regions();
  ASSERT_EQ(moved.moved, ref.migrate_regions().moved);
  EXPECT_GT(moved.moved, 0u);
  EXPECT_EQ(moved.stores_retired, 1u);
  const auto migrated = dir.publish_snapshot();
  EXPECT_EQ(image(*migrated), snapshot(ref));
  expect_same_users(*migrated, ref, 400);

  // The next write's recycled body needs the migration replayed, the
  // retired store included.
  dir.apply_updates(trace[3]);
  ref.apply_updates(trace[3]);
  const auto snap = dir.publish_snapshot();
  EXPECT_EQ(image(*snap), snapshot(ref));
  expect_same_users(*snap, ref, 400);
  EXPECT_EQ(snap->store(se), nullptr);  // empty stores serialize to nothing
  EXPECT_EQ(dir.counters().snapshot_slices_cloned,
            before.snapshot_slices_cloned);
  EXPECT_EQ(dir.counters().snapshot_slices_recycled,
            before.snapshot_slices_recycled + 4);  // store map + users, twice
}

}  // namespace
}  // namespace geogrid::mobility
