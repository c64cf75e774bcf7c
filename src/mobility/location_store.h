// Spatial store of mobile-user location records.
//
// Each region owner keeps one LocationStore holding the latest timestamped
// report of every user currently inside its region.  The store is the hot
// data structure of the mobile-user layer: the paper's workload is dominated
// by location updates from moving users, so ingest must be O(1) and spatial
// queries must not scan the whole population.
//
// Records live in a structure-of-arrays layout: dense parallel columns for
// user id, x coordinate, y coordinate, sequence and timestamp, indexed by a
// flat open-addressing map (common::FlatMap) from user to record slot.
// Ingest touches exactly the columns it writes, range scans sweep the
// coordinate columns without dragging timestamps through the cache, and
// nothing pointer-chases through node allocations — this is what keeps
// updates/sec flat as the population grows into the millions.  The x/y
// split (rather than a packed Point column) is what lets the wide-rect
// range path SIMD-scan the whole store: four vector compares per lane
// group over linearly streaming doubles (common/simd.h), instead of a
// per-point branch over interleaved pairs.  The spatial side is a sparse
// uniform grid of square cells (flat map from packed cell coordinates to a
// bucket of record slots); cells materialize only where users are, so one
// store works unchanged whether its region is the whole plane or a
// post-split sliver, and region splits/merges never force a re-grid.
//
// Per-user sequence numbers make ingestion idempotent and reorder-safe: a
// report older than the stored one is rejected, so replicated stores
// converge no matter how updates and handoffs interleave on the wire.
// The store serializes through the net codec so a primary can replicate it
// to its secondary over the existing dual-peer SyncState path.  Encoding is
// canonical (records sorted by user id): two stores holding the same
// records produce identical bytes regardless of the order they ingested
// them in, which is what the sharded engine's K-invariance test leans on.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <tuple>
#include <utility>
#include <vector>

#include "common/flat_map.h"
#include "common/geometry.h"
#include "common/ids.h"
#include "net/codec.h"

namespace geogrid::mobility {

/// The latest known position of one user.
struct LocationRecord {
  UserId user{};
  Point position{};
  std::uint64_t seq = 0;    ///< per-user monotonic report counter
  double timestamp = 0.0;   ///< virtual time of the report

  friend bool operator==(const LocationRecord&,
                         const LocationRecord&) = default;

  static auto fields(auto& m) {
    return std::tie(m.user, m.position, m.seq, m.timestamp);
  }
};

/// The k best candidates of one k-nearest answer, gathered across every
/// store it probes: a bounded max-heap on (distance, user id) whose top is
/// the worst candidate kept, sorted once when the answer is taken.  An
/// offer costs O(log k) whatever k is, and the set holds at most
/// min(k, records offered), so a hostile k sizes nothing up front.  One
/// set is reused across answers (reset() keeps the capacity), so a caller
/// that keeps it in scratch makes no allocation per answer.
class NearestSet {
 public:
  /// Empties the set for a new answer of `k` records.
  void reset(std::size_t k) {
    k_ = k;
    heap_.clear();
  }

  bool full() const noexcept { return heap_.size() >= k_; }

  /// The k-th best distance so far; +inf until k candidates are held.
  double kth() const noexcept {
    return full() && !heap_.empty() ? heap_.front().dist
                                    : std::numeric_limits<double>::infinity();
  }

  /// The distance beyond which a lower bound proves a record cannot
  /// enter: kth() widened by far more than the rounding of any bound (a
  /// cell or rect distance differs from a record's own distance() by a few
  /// ulps).  Pruning on `bound > reach()` therefore never drops a record
  /// whose distance() would tie or beat the k-th best.  A region's rect
  /// distance is such a bound: a record lies in its owner's closed rect.
  double reach() const noexcept {
    const double kth = this->kth();
    return kth + (kth * 0x1p-40 + 0x1p-1000);
  }

  /// True when a record at `dist` with id `user` enters: the set is not
  /// full yet, or it precedes the worst kept candidate in (distance, id).
  bool admits(double dist, UserId user) const noexcept {
    if (!full()) return true;
    if (heap_.empty()) return false;  // k == 0
    const Entry& worst = heap_.front();
    return dist < worst.dist ||
           (dist == worst.dist && user < worst.record.user);
  }

  /// Adds a candidate that admits() accepted, evicting the worst when full.
  void push(double dist, const LocationRecord& record);

  /// Appends the candidates to `out` in ascending (distance, id) order —
  /// one reserve, so an answer vector grows exactly once — and empties
  /// the set.
  void take_sorted(std::vector<LocationRecord>& out);

 private:
  friend class LocationStore;

  struct Entry {
    double dist;
    LocationRecord record;
  };
  /// Answer order: ascending distance, ties on user id.  As the heap's
  /// "less", it keeps the answer's last candidate on top.
  static bool precedes(const Entry& a, const Entry& b) noexcept {
    return a.dist != b.dist ? a.dist < b.dist : a.record.user < b.record.user;
  }

  std::size_t k_ = 0;
  std::vector<Entry> heap_;
  /// LocationStore::k_nearest_into's working list of far cells, as
  /// (lower bound, cell key): kept here so a probe never allocates.
  std::vector<std::pair<double, std::uint64_t>> far_cells_;
};

class LocationStore {
 public:
  /// `cell_size` is the grid pitch in miles.  The default keeps cell
  /// populations small on the 64x64-mile plane even at 1M users
  /// (~244 users/cell uniform) while range scans touch few cells.
  explicit LocationStore(double cell_size = 1.0) : cell_size_(cell_size) {}

  /// Ingests a report.  Returns true when it was applied; false when a
  /// record with an equal or newer sequence already exists (stale report,
  /// replay, or reordered delivery).
  bool ingest(const LocationRecord& record);

  /// Point lookup: the stored record for `user`, if present.
  std::optional<LocationRecord> locate(UserId user) const;

  /// Removes `user` outright.  Returns true when a record was removed.
  bool erase(UserId user);

  /// Handoff eviction: removes `user` only when the stored sequence is
  /// <= `max_seq` (a newer report has authority over an older eviction).
  bool erase_if_stale(UserId user, std::uint64_t max_seq);

  /// All records whose position rect.covers(): open on the west and
  /// south edges, closed on the east and north ones, the rule
  /// pubsub::SubscriptionIndex matches with.
  std::vector<LocationRecord> range(const Rect& rect) const;

  /// range() appending into a caller-owned vector (not cleared) — the
  /// batched query path merges per-region partials without reallocating.
  /// A rect that covers at least as many grid cells as the store holds is
  /// answered by the SIMD filter over the whole coordinate columns; a
  /// narrower one visits the cells the rect touches and filters their
  /// residents without a data-dependent branch.  The two paths emit the
  /// same hits in different orders.  A rect that covers no point (a NaN
  /// edge, or a zero or negative extent) finds nothing.
  void range_into(const Rect& rect, std::vector<LocationRecord>& out) const;

  /// The k records nearest to `p` (fewer when the store is smaller),
  /// ordered by ascending distance; ties break on user id.
  std::vector<LocationRecord> k_nearest(const Point& p, std::size_t k) const;

  /// Offers to `best` every record of this store that can still enter its
  /// answer: the k-th best distance `best` already holds, from earlier
  /// probes of other stores, bounds the probe from its first cell.  Cells
  /// are visited in Chebyshev rings around p's cell; a ring stops the
  /// probe once its lower bound — p's distance to the edge of its own
  /// cell plus (ring - 1) cells — exceeds the k-th best, a cell is skipped
  /// when its rect distance does, and a resident is rejected on its
  /// squared distance before any square root.  Every bound widens a cell
  /// edge by a rounding slack (points are bucketed by floor(v / cell)),
  /// and compares against NearestSet::reach(), so pruning never changes
  /// the answer: exactly the distance() order with ties on user id.  The
  /// walk never enumerates more grid coordinates than the store has
  /// cells; past that it visits the remaining cells directly, nearest
  /// first, so a center far off the store costs O(cells log cells), not
  /// a walk over every empty coordinate in between.  A non-finite p
  /// finds nothing.
  void k_nearest_into(const Point& p, NearestSet& best) const;

  /// Visits every stored record in slot order (an artifact of ingestion
  /// history, not canonical) — callers that need determinism must sort what
  /// they collect.  The region-migration scan is the intended consumer.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::uint32_t slot = 0;
         slot < static_cast<std::uint32_t>(users_.size()); ++slot) {
      fn(record_at(slot));
    }
  }

  std::size_t size() const noexcept { return users_.size(); }
  bool empty() const noexcept { return users_.empty(); }
  void clear();

  double cell_size() const noexcept { return cell_size_; }

  /// Serialization for primary -> secondary replication.  Canonical:
  /// records are emitted sorted by user id, so equal contents mean equal
  /// bytes no matter the ingestion history.
  void encode(net::Writer& w) const;
  static LocationStore decode(net::Reader& r);

 private:
  /// Packs the signed cell coordinates of a point into one key.
  std::uint64_t cell_key_of(const Point& p) const noexcept;
  static std::uint64_t pack(std::int32_t cx, std::int32_t cy) noexcept {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(cx)) << 32) |
           static_cast<std::uint32_t>(cy);
  }
  /// floor(v / cell_size) saturated to the int32 range; NaN maps to the
  /// lowest cell.
  std::int32_t cell_coord(double v) const noexcept;
  /// Bounds on the coordinates bucketed into grid column (or row) `c`:
  /// every v with cell_coord(v) >= c is >= cell_lo(c), and every v with
  /// cell_coord(v) <= c is <= cell_hi(c).  The saturated end cells are
  /// unbounded outward.
  double cell_lo(std::int64_t c) const noexcept;
  double cell_hi(std::int64_t c) const noexcept;
  /// Lower bound on the distance from `p` to any record of cell (cx, cy).
  double cell_distance(std::int64_t cx, std::int64_t cy,
                       const Point& p) const noexcept;

  void cell_insert(std::uint64_t key, std::uint32_t slot);
  void cell_remove(std::uint64_t key, std::uint32_t slot);
  void cell_replace(std::uint64_t key, std::uint32_t old_slot,
                    std::uint32_t new_slot);
  Point position_at(std::uint32_t slot) const noexcept {
    return Point{xs_[slot], ys_[slot]};
  }
  LocationRecord record_at(std::uint32_t slot) const {
    return LocationRecord{users_[slot], position_at(slot), seqs_[slot],
                          timestamps_[slot]};
  }
  void remove_slot(std::uint32_t slot);

  double cell_size_;
  // Structure-of-arrays record columns; `index_` maps user -> slot.
  // `cell_keys_` caches each slot's packed cell so the in-place update
  // path (the overwhelmingly common ingest) never recomputes the old
  // cell's floor divisions.  Coordinates are split into separate x/y
  // columns for the SIMD range filter (see header comment).
  std::vector<UserId> users_;
  std::vector<double> xs_;
  std::vector<double> ys_;
  std::vector<std::uint64_t> seqs_;
  std::vector<double> timestamps_;
  std::vector<std::uint64_t> cell_keys_;
  common::FlatMap<UserId, std::uint32_t> index_;
  common::FlatMap<std::uint64_t, std::vector<std::uint32_t>> cells_;
};

}  // namespace geogrid::mobility
