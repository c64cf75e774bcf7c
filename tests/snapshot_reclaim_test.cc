// Epoch-reclaimed snapshot read path: ShardedDirectory's retired-snapshot
// bookkeeping, a pinned read (register_reader, an EpochDomain::Guard,
// pinned_snapshot, QueryEngine::run_on) agreeing with the writer-side
// run(), and concurrent pinned readers racing a publishing writer (the
// deployment the sanitizer jobs exercise).
#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "mobility/motion.h"
#include "mobility/query_engine.h"
#include "mobility/sharded_directory.h"

namespace geogrid::mobility {
namespace {

constexpr Rect kPlane{0.0, 0.0, 64.0, 64.0};

struct QuadrantFixture {
  overlay::Partition partition{kPlane};
  QuadrantFixture() {
    const NodeId a = partition.add_node({NodeId{1}, Point{10, 10}, 10.0});
    const NodeId b = partition.add_node({NodeId{2}, Point{10, 50}, 10.0});
    const NodeId c = partition.add_node({NodeId{3}, Point{50, 10}, 10.0});
    const NodeId d = partition.add_node({NodeId{4}, Point{50, 50}, 10.0});
    const RegionId root = partition.create_root(a);
    const RegionId north = partition.split(root, b);
    partition.split(root, c);
    partition.split(north, d);
    EXPECT_EQ(partition.region_count(), 4u);
  }
};

std::vector<LocationRecord> tick_batch(UserPopulation& pop, double now) {
  std::vector<LocationRecord> batch;
  pop.step(1.0, now);
  for (auto& u : pop.users()) {
    batch.push_back({u.id, u.position, u.next_seq++, now});
  }
  return batch;
}

std::vector<std::byte> result_bytes(std::span<const QueryResult> results) {
  net::Writer w;
  QueryEngine::serialize(w, results);
  return std::move(w).take();
}

/// Runs `batch` the way a thread other than the writer does: pinned
/// through its own registered reader, against the latest snapshot.
std::vector<QueryResult> read_pinned(const ShardedDirectory& dir,
                                     common::EpochDomain::Reader& reader,
                                     QueryEngine& engine,
                                     std::span<const Query> batch) {
  common::EpochDomain::Guard pin(reader);
  const DirectorySnapshot* snapshot = dir.pinned_snapshot();
  EXPECT_NE(snapshot, nullptr);
  if (snapshot == nullptr) return {};
  return engine.run_on(*snapshot, batch);
}

TEST(SnapshotReclaim, RetiredSnapshotsAreReclaimedWithoutReaders) {
  QuadrantFixture fx;
  ShardedDirectory dir(fx.partition, {.shards = 2});
  UserPopulation pop(50, {}, nullptr, Rng(11));
  double now = 0.0;
  for (int i = 0; i < 5; ++i) {
    dir.apply_updates(tick_batch(pop, now += 1.0));
    (void)dir.publish_snapshot();
  }
  // Each publish after the first superseded its predecessor, and with no
  // reader pinned every retired snapshot becomes reclaimable by the next
  // publish.
  EXPECT_GE(dir.counters().snapshots_retired, 4u);
  EXPECT_GT(dir.counters().snapshots_reclaimed, 0u);
  EXPECT_LE(dir.counters().snapshots_reclaimed,
            dir.counters().snapshots_retired);
}

TEST(SnapshotReclaim, ActivePinHoldsSupersededSnapshot) {
  QuadrantFixture fx;
  ShardedDirectory dir(fx.partition, {.shards = 2});
  UserPopulation pop(50, {}, nullptr, Rng(12));
  double now = 0.0;
  dir.apply_updates(tick_batch(pop, now += 1.0));
  (void)dir.publish_snapshot();

  auto reader = dir.register_reader();
  ASSERT_TRUE(reader.registered());
  reader.pin();
  const DirectorySnapshot* pinned = dir.pinned_snapshot();
  ASSERT_NE(pinned, nullptr);
  const std::uint64_t pinned_epoch = pinned->epoch();

  // Supersede the pinned snapshot several times.  The pin must keep the
  // old snapshot readable: its epoch and stores stay exactly as acquired.
  for (int i = 0; i < 3; ++i) {
    dir.apply_updates(tick_batch(pop, now += 1.0));
    (void)dir.publish_snapshot();
  }
  EXPECT_GE(dir.counters().snapshots_retired, 3u);
  const std::uint64_t reclaimed_while_pinned =
      dir.counters().snapshots_reclaimed;
  EXPECT_EQ(pinned->epoch(), pinned_epoch);  // still alive and unchanged
  reader.unpin();

  // With the pin gone the backlog drains on the next publish.
  dir.apply_updates(tick_batch(pop, now += 1.0));
  (void)dir.publish_snapshot();
  EXPECT_GT(dir.counters().snapshots_reclaimed, reclaimed_while_pinned);
}

TEST(SnapshotReclaim, RunPinnedMatchesWriterSideRun) {
  QuadrantFixture fx;
  ShardedDirectory dir(fx.partition, {.shards = 4});
  UserPopulation pop(200, {}, nullptr, Rng(13));
  double now = 0.0;
  for (int i = 0; i < 10; ++i) {
    dir.apply_updates(tick_batch(pop, now += 1.0));
  }

  std::vector<Query> batch;
  for (std::uint32_t u = 1; u <= 200; ++u) batch.push_back(Query::locate(UserId{u}));
  batch.push_back(Query::range(Rect{8.0, 8.0, 40.0, 40.0}));
  batch.push_back(Query::nearest(Point{32.0, 32.0}, 12));

  QueryEngine engine(dir, {.threads = 2});
  const auto via_run = engine.run(batch);        // publishes the snapshot
  auto reader = dir.register_reader();
  ASSERT_TRUE(reader.registered());
  const auto via_pinned = read_pinned(dir, reader, engine, batch);
  EXPECT_EQ(result_bytes(via_run), result_bytes(via_pinned));
}

TEST(SnapshotReclaim, PinnedSnapshotIsNullBeforeFirstPublish) {
  QuadrantFixture fx;
  ShardedDirectory dir(fx.partition, {.shards = 2});
  auto reader = dir.register_reader();
  ASSERT_TRUE(reader.registered());
  common::EpochDomain::Guard pin(reader);
  EXPECT_EQ(dir.pinned_snapshot(), nullptr);
}

TEST(SnapshotReclaim, EnginesClaimNoReaderSlot) {
  // Reader slots are permanent, so an engine that claimed one would use
  // the domain up: past kMaxReaders engines over one directory, the next
  // reader would get no slot.
  QuadrantFixture fx;
  ShardedDirectory dir(fx.partition, {.shards = 1});
  for (int i = 0; i < 100; ++i) {
    QueryEngine engine(dir, {.threads = 1});
  }
  EXPECT_TRUE(dir.register_reader().registered());
}

TEST(SnapshotReclaim, ConcurrentPinnedReadersRacePublishingWriter) {
  // The deployment shape: engines on their own threads, each with its own
  // registered reader, acquiring pinned snapshots while the writer ingests
  // and publishes.
  // Epoch reclamation must keep every acquired snapshot alive for the
  // duration of its batch — a lifetime bug is a crash or sanitizer
  // report here, and locate answers must always be internally coherent.
  QuadrantFixture fx;
  ShardedDirectory dir(fx.partition, {.shards = 2});
  UserPopulation pop(100, {}, nullptr, Rng(14));
  double now = 0.0;
  dir.apply_updates(tick_batch(pop, now += 1.0));
  (void)dir.publish_snapshot();

  std::atomic<bool> done{false};
  std::vector<std::thread> readers;
  for (int i = 0; i < 2; ++i) {
    readers.emplace_back([&dir, &done] {
      QueryEngine engine(dir, {.threads = 1});
      auto reader = dir.register_reader();
      std::vector<Query> batch;
      for (std::uint32_t u = 1; u <= 100; ++u) {
        batch.push_back(Query::locate(UserId{u}));
      }
      while (!done.load(std::memory_order_acquire)) {
        const auto results = read_pinned(dir, reader, engine, batch);
        for (const QueryResult& r : results) {
          if (r.found) {
            // A located record read off a pinned snapshot is coherent:
            // its position sits inside the plane the trace never leaves.
            EXPECT_TRUE(kPlane.owns(r.located.position, kPlane));
          }
        }
      }
    });
  }

  // Past 200 epochs, keep going (bounded) until a write has recycled a
  // body with the readers still running: a reader preempted while pinned
  // holds back every snapshot retired meanwhile, so on a loaded host the
  // first 200 writes can all clone.
  for (int i = 0;
       i < 200 || (dir.counters().snapshot_slices_recycled == 0 && i < 20000);
       ++i) {
    dir.apply_updates(tick_batch(pop, now += 1.0));
    (void)dir.publish_snapshot();
  }
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  EXPECT_GE(dir.counters().snapshots_retired, 100u);
  EXPECT_GT(dir.counters().snapshots_reclaimed, 0u);
  // The readers raced real body reuse: the writer both replayed onto
  // bodies released by reclamation and cloned past held ones.
  EXPECT_GT(dir.counters().snapshot_slices_recycled, 0u);
  EXPECT_GT(dir.counters().snapshot_slices_cloned, 0u);
}

}  // namespace
}  // namespace geogrid::mobility
