// Batched parallel query engine for the mobile-user read path.
//
// The paper's location service answers three question shapes: "where is
// user u" (locate), "who is inside this rectangle" (range, the radius-γ
// friend query mapped to its bounding box), and "who are the k nearest
// users to p".  The per-call implementations on ShardedDirectory answer
// each question by walking the live write-side structures — correct
// between batches, but every range call sweeps all R partition regions and
// every k-nearest call sorts all resident stores by rect distance, and
// none of it may overlap ingestion.
//
// QueryEngine is the read path rebuilt around two ideas:
//
//   1. Snapshot isolation.  A batch executes against one epoch-versioned
//      immutable DirectorySnapshot (see directory_snapshot.h), so queries
//      never block ingestion, never tear mid-batch state, and the whole
//      batch observes exactly one epoch.
//   2. Indexed region discovery.  The shared overlay::RegionResolver (the
//      same rect memo the write path's locate fast path uses) carries a
//      uniform spatial grid over the region rects: a range query touches
//      only the grid cells its rect covers instead of scanning all R
//      regions, and k-nearest discovers stores in expanding distance rings
//      with an exact pruning bound instead of ordering every store first.
//
// A k-nearest answer costs only what can still enter it.  Its candidates
// from every store land in one bounded max-heap (mobility::NearestSet) in
// task scratch, O(log k) per offer whatever k is; each store probe starts
// from the k-th best the earlier probes found, and the region rings stop
// once their floor passes it.  The answer is sorted once and copied into
// its vector: one allocation per range or k-nearest answer, none per
// locate.
//
// A query whose center or rect is not finite (NaN or an infinity in any
// field) answers with an empty result, before any cell or resolver
// arithmetic sees the value.  A finite query answers exactly however far
// it lies off the plane or however large its k: nothing is sized by k,
// and no walk is longer than the cells a store holds.
//
// Batches fan out over a fixed WorkerPool by contiguous request chunks;
// each request is computed entirely by one task against frozen state, and
// chunk boundaries are a pure function of (batch size, task count), so
// results — down to serialized bytes — are identical for every shard count
// and every thread count.  Range answers are in user-id order; k-nearest
// is exact with ties broken on user id.
//
// Geometry caveat: the resolver reflects the partition as of the last
// applied batch.  Partition mutations (splits/merges) must be quiesced
// relative to query execution, exactly as they must be for ingestion.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/geometry.h"
#include "common/ids.h"
#include "common/worker_pool.h"
#include "mobility/directory_snapshot.h"
#include "mobility/location_store.h"
#include "mobility/sharded_directory.h"
#include "net/codec.h"
#include "overlay/region_resolver.h"

namespace geogrid::mobility {

/// One read request.  Exactly the fields of its kind are meaningful.
struct Query {
  enum class Kind : std::uint8_t {
    kLocate = 0,   ///< where is `user`
    kRange = 1,    ///< everyone inside `rect`
    kNearest = 2,  ///< the `k` users nearest `point`
  };

  Kind kind = Kind::kLocate;
  UserId user{};
  Rect rect{};
  Point point{};
  std::uint32_t k = 0;

  static Query locate(UserId user) {
    Query q;
    q.kind = Kind::kLocate;
    q.user = user;
    return q;
  }
  static Query range(const Rect& rect) {
    Query q;
    q.kind = Kind::kRange;
    q.rect = rect;
    return q;
  }
  static Query nearest(const Point& point, std::uint32_t k) {
    Query q;
    q.kind = Kind::kNearest;
    q.point = point;
    q.k = k;
    return q;
  }
};

/// The answer to one Query, in the result slot matching the request index.
struct QueryResult {
  Query::Kind kind = Query::Kind::kLocate;
  bool found = false;            ///< locate only: record exists
  LocationRecord located{};      ///< locate only: valid when `found`
  std::vector<LocationRecord> records;  ///< range / nearest

  /// Canonical encoding (kind tag + payload) to any codec sink.  Equal
  /// answers mean equal bytes — the unit the invariance tests compare.
  template <typename Sink>
  void encode(Sink& w) const {
    w.varint(static_cast<std::uint64_t>(kind));
    if (kind == Query::Kind::kLocate) {
      w.boolean(found);
      if (found) net::put(w, located);
      return;
    }
    net::put(w, records);
  }

  /// Inverse of encode, for the wire client reconstructing an engine
  /// answer from a reply payload.  Throws net::CodecError on malformed
  /// input, like every other decode in the codec.
  static QueryResult decode(net::Reader& r);
};

class QueryEngine {
 public:
  struct Options {
    /// Worker-thread fan-out for a batch.  0 = hardware threads; 1 = fully
    /// serial (no threads spawned).  Results never depend on this.
    std::size_t threads = 0;
  };

  struct Counters {
    std::uint64_t batches = 0;
    std::uint64_t queries = 0;
    std::uint64_t locates = 0;
    std::uint64_t locate_hits = 0;
    std::uint64_t ranges = 0;
    std::uint64_t nearests = 0;
    std::uint64_t records_returned = 0;
    /// Non-empty stores actually merged (range partials + kNN probes) —
    /// the number the indexed discovery keeps far below R * queries.
    std::uint64_t regions_scanned = 0;
    std::uint64_t last_epoch = 0;  ///< epoch of the last snapshot queried
  };

  /// The engine reads the directory's shared RegionResolver and publishes
  /// snapshots through it.  One engine instance serves one querying thread
  /// at a time (run is not re-entrant); any number of engines may share a
  /// directory's snapshots.  An engine holds no reclamation-domain slot: a
  /// thread other than the writer registers its own reader once
  /// (ShardedDirectory::register_reader) and, under an EpochDomain::Guard
  /// on it, passes pinned_snapshot() to run_on.
  explicit QueryEngine(ShardedDirectory& directory);
  QueryEngine(ShardedDirectory& directory, Options options);

  /// Publishes (or reuses) the directory's snapshot at the current ingest
  /// epoch, then executes the batch against it.  Writer-side convenience:
  /// must not overlap apply_updates, like publish_snapshot itself.
  std::vector<QueryResult> run(std::span<const Query> batch);

  /// Executes the batch against a caller-held snapshot.  Touches only
  /// frozen state — safe while another thread ingests and publishes, which
  /// is exactly the concurrent-reader deployment.
  std::vector<QueryResult> run_on(const DirectorySnapshot& snapshot,
                                  std::span<const Query> batch);

  std::size_t thread_count() const noexcept { return pool_.task_count(); }
  const Counters& counters() const noexcept { return counters_; }

  /// Canonical serialization of a whole result batch: count then each
  /// result's encoding in request order.
  static void serialize(net::Writer& w, std::span<const QueryResult> results);

 private:
  /// Per-task working state, reused across every query of a task's chunk
  /// and across batches, so region discovery and range ordering never
  /// allocate in steady state.
  struct Scratch {
    std::vector<RegionId> regions;
    overlay::RegionResolver::NearScratch near;
    NearestSet nearest;  ///< one kNN answer's bounded heap, across stores
    std::vector<LocationRecord> hits;  ///< one range answer, store order
    std::vector<std::uint64_t> keys;   ///< (user << 32 | hit index)
    std::vector<std::uint64_t> spare_keys;  ///< the radix sort's other half
  };

  /// Persistent per-task slab, one cacheline-aligned slot per pool task.
  /// Task t always runs on the same pool thread (fixed affinity), so its
  /// scratch vectors stay warm in that thread's cache across batches, and
  /// the per-task counter tallies written during a batch never false-share
  /// with a neighbouring task's.
  struct alignas(64) TaskState {
    Scratch scratch;
    Counters tally;
  };

  void exec(const DirectorySnapshot& snapshot, const Query& q,
            QueryResult& out, Scratch& scratch, Counters& c) const;

  ShardedDirectory& directory_;
  const overlay::RegionResolver& resolver_;
  Counters counters_;
  common::WorkerPool pool_;
  std::vector<TaskState> task_states_;
};

}  // namespace geogrid::mobility
