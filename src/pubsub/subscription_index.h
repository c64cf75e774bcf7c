// Spatial index of standing subscriptions for the incremental pub/sub path.
//
// GeoGrid's headline service is continuous location-based middleware:
// standing subscriptions ("tell me when anyone enters this parking lot",
// "track my friend u42") that push notifications as users move.  Answering
// them by re-querying the world every tick costs O(subscriptions x query)
// per epoch no matter how few users actually moved.  SubscriptionIndex is
// the inverted structure that makes the delta path possible: given one
// moved user's position, return every subscription whose geometry covers
// it, in canonical (ascending sub-id) order, in O(candidates of one cell).
//
// The index holds three subscription kinds, one record per subscription:
//
//   * geofence — fire enter/leave when a user crosses the area boundary
//   * range    — geofence plus a move event for motion inside the area
//     (the paper's radius-γ continuous query mapped to its bounding box)
//   * friend   — track one named user everywhere (no geometry)
//
// Records sit in one dense vector, found by id through one id -> position
// map; unsubscribe moves the last record into the hole and repoints that
// map alone, because nothing else names a position.  The grid and the
// friend lists name subscriptions by id.  What the match loop reads is in
// per-grid-cell structure-of-arrays columns (lo_x/lo_y/hi_x/hi_y edge
// doubles, subscription id, kind), each cell one contiguous allocation, so
// a point probe is one cell lookup followed by a SIMD half-open
// containment scan (common::filter_rects_covering_point) that streams four
// compares and a movemask per lane group — no per-candidate pointer chase,
// no branch per rect.  The probe emits (id, kind) CoverMatch pairs, so the
// notification merge loop downstream never reads a record either; only
// notification serialization looks one up, by id, for its filter.
//
// Rect-carrying kinds live in a uniform grid over the plane, built on the
// same UniformGridSpec math as overlay::RegionResolver so every spatial
// index in the codebase buckets coordinates identically.  Each grid cell
// keeps its columns sorted by id; a rect is inserted into every cell it
// touches (UniformGridSpec::each_cell), and the half-open Rect::covers
// test (open on the west and south edges, closed on the east and north)
// means a point probe needs exactly one cell — the candidates arrive
// pre-sorted and covering() never sorts or deduplicates.  It is
// LocationStore::range's rule too, so a range query and a geofence over
// one rect agree about every user, those on its edges and corners
// included.  Friend subscriptions skip the grid entirely: each tracked
// user keeps an ascending list of the ids tracking it.
//
// Like the resolver, the index is a refresh-then-read structure: refresh()
// (dispatcher-only) rebuilds the grid when the resident count drifted 2x
// from the built size, subscribe/unsubscribe keep the columns exact in
// between, and all query methods are const reads of frozen state, safe
// from any number of match workers concurrently.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/flat_map.h"
#include "common/geometry.h"
#include "common/ids.h"
#include "net/messages.h"
#include "overlay/region_resolver.h"

namespace geogrid::pubsub {

/// What a standing subscription watches (see header comment).
enum class SubKind : std::uint8_t {
  kGeofence = 0,
  kRange = 1,
  kFriend = 2,
};

/// One resident subscription.  `friend_user` is meaningful only for
/// kFriend; `area` only for the rect-carrying kinds.  `filter` is the
/// Notify topic.
struct SubRecord {
  std::uint64_t id = 0;
  SubKind kind = SubKind::kGeofence;
  Rect area{};
  UserId friend_user{};
  std::string filter;

  friend bool operator==(const SubRecord&, const SubRecord&) = default;
};

/// One covering() hit: what the notification merge loop needs of a
/// subscription, straight from the cell's columns.
struct CoverMatch {
  std::uint64_t id = 0;
  SubKind kind = SubKind::kGeofence;

  friend bool operator==(const CoverMatch&, const CoverMatch&) = default;
};

namespace detail {

/// One grid cell's subscriptions as structure-of-arrays columns in a
/// single allocation: [lo_x | lo_y | hi_x | hi_y] as doubles, then the
/// u64 id column, then the SubKind column, each `capacity()` entries
/// long.  One allocation per cell (not six vectors) keeps the per-cell
/// header at pointer+2x32bit even when a million sparse cells hold one
/// rect each, and the probe's four coordinate columns stream linearly for
/// the SIMD scan.  Entries stay sorted by id; insert/erase
/// shift each column's tail like a sorted vector would.
class CellSoA {
 public:
  CellSoA() = default;
  CellSoA(CellSoA&& o) noexcept
      : data_(o.data_), size_(o.size_), cap_(o.cap_) {
    o.data_ = nullptr;
    o.size_ = o.cap_ = 0;
  }
  CellSoA& operator=(CellSoA&& o) noexcept {
    if (this != &o) {
      delete[] data_;
      data_ = o.data_;
      size_ = o.size_;
      cap_ = o.cap_;
      o.data_ = nullptr;
      o.size_ = o.cap_ = 0;
    }
    return *this;
  }
  CellSoA(const CellSoA&) = delete;
  CellSoA& operator=(const CellSoA&) = delete;
  ~CellSoA() { delete[] data_; }

  std::uint32_t size() const noexcept { return size_; }
  std::uint32_t capacity() const noexcept { return cap_; }

  const double* lo_x() const noexcept { return col_d(0); }
  const double* lo_y() const noexcept { return col_d(1); }
  const double* hi_x() const noexcept { return col_d(2); }
  const double* hi_y() const noexcept { return col_d(3); }
  const std::uint64_t* ids() const noexcept {
    return reinterpret_cast<const std::uint64_t*>(data_ + 4 * bytes_per_col());
  }
  const SubKind* kinds() const noexcept {
    return reinterpret_cast<const SubKind*>(data_ + 5 * bytes_per_col());
  }

  /// First position whose id is >= `id` (entries are sorted by id).
  std::uint32_t lower_bound(std::uint64_t id) const noexcept {
    const std::uint64_t* col = ids();
    std::uint32_t lo = 0;
    std::uint32_t hi = size_;
    while (lo < hi) {
      const std::uint32_t mid = lo + (hi - lo) / 2;
      if (col[mid] < id) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  /// Pre-sizes the buffer for `cap` entries (rebuild path: count, reserve,
  /// append in id order — no per-insert shifting or reallocation).
  void reserve(std::uint32_t cap);

  /// Inserts one entry at `pos` (<= size()), shifting each column's tail.
  void insert(std::uint32_t pos, const Rect& area, std::uint64_t id,
              SubKind kind);

  /// Appends (rebuild path; caller feeds ascending ids).
  void append(const Rect& area, std::uint64_t id, SubKind kind) {
    insert(size_, area, id, kind);
  }

  /// Removes the entry at `pos`, shifting each column's tail down.
  void erase(std::uint32_t pos);

 private:
  /// Five 8-byte columns, then the kind column.
  static constexpr std::size_t kColumns = 6;
  static constexpr std::size_t elem_size(std::size_t c) noexcept {
    return c < kColumns - 1 ? sizeof(double) : sizeof(SubKind);
  }
  /// Column c starts at c * bytes_per_col(): every column before the last
  /// is a double's width.
  std::size_t bytes_per_col() const noexcept {
    return static_cast<std::size_t>(cap_) * sizeof(double);
  }
  const double* col_d(std::size_t c) const noexcept {
    return reinterpret_cast<const double*>(data_ + c * bytes_per_col());
  }
  double* col_d_mut(std::size_t c) noexcept {
    return reinterpret_cast<double*>(data_ + c * bytes_per_col());
  }

  void grow(std::uint32_t min_cap, std::uint32_t gap_pos);

  // Column layout (all offsets in multiples of cap_): doubles first so
  // every column stays naturally aligned in one `new std::byte[]` block —
  // 4 edge columns, the u64 id column (same stride as a double), then the
  // one-byte kind column.
  std::byte* data_ = nullptr;
  std::uint32_t size_ = 0;
  std::uint32_t cap_ = 0;
};

}  // namespace detail

class SubscriptionIndex {
 public:
  explicit SubscriptionIndex(const Rect& plane)
      : spec_(overlay::UniformGridSpec::over(plane, 1)) {
    // One-cell grid from birth: subscribe/unsubscribe keep the grid exact
    // at all times, refresh() only re-tunes the pitch as the population
    // grows.
    grid_.resize(1);
  }

  SubscriptionIndex(const SubscriptionIndex&) = delete;
  SubscriptionIndex& operator=(const SubscriptionIndex&) = delete;

  /// Installs a rect-carrying subscription from its wire message.  A
  /// resubscribe of a resident id replaces the subscription.
  void subscribe(const net::Subscribe& msg, SubKind kind = SubKind::kGeofence);

  /// Installs a friend-tracking subscription: fires wherever
  /// `friend_user` moves; msg.area is ignored.
  void subscribe_friend(const net::Subscribe& msg, UserId friend_user);

  /// Removes a subscription.  Returns false when the id is not resident.
  bool unsubscribe(std::uint64_t sub_id);

  /// Rebuilds the spatial grid iff the resident rect-subscription count
  /// drifted 2x from the size the grid was built for.  Dispatcher-only,
  /// like RegionResolver::refresh; the const queries below are safe from
  /// any thread between refreshes.
  void refresh();

  /// Appends a CoverMatch for every rect subscription whose area covers
  /// `p`, in ascending sub-id order (`out` is cleared first).  One
  /// grid-cell probe, then a SIMD half-open containment scan over the
  /// cell's SoA edge columns; candidates arrive pre-sorted so nothing is
  /// re-sorted here.
  void covering(const Point& p, std::vector<CoverMatch>& out) const;

  /// Ids of the friend subscriptions tracking `user`, ascending (null
  /// when nobody tracks the user).
  const std::vector<std::uint64_t>* friends_of(UserId user) const {
    return friends_.find(user);
  }

  /// The record of a resident subscription id (null when not resident).
  const SubRecord* find(std::uint64_t sub_id) const {
    const std::uint32_t* pos = position_.find(sub_id);
    return pos == nullptr ? nullptr : &records_[*pos];
  }

  std::size_t size() const noexcept { return records_.size(); }
  std::size_t rect_count() const noexcept { return rect_count_; }
  std::size_t grid_dim() const noexcept { return spec_.dim; }

  /// Exhaustive consistency audit of records vs id map vs grid vs friend
  /// lists (test support; O(subscriptions x covered cells)).  Returns
  /// false on the first inconsistency.
  bool validate() const;

 private:
  void insert(SubRecord rec);
  void rebuild_grid();

  std::vector<SubRecord> records_;  ///< dense, in no particular order
  common::FlatMap<std::uint64_t, std::uint32_t> position_;  ///< id -> record
  /// Tracked user -> ascending ids of the friend subscriptions tracking it.
  common::FlatMap<UserId, std::vector<std::uint64_t>> friends_;
  std::size_t rect_count_ = 0;  ///< resident non-friend subscriptions

  // Uniform grid over the plane (UniformGridSpec: same cell math as the
  // region resolver).  Sized so the average subscription rect covers O(1)
  // cells; rebuilt lazily by refresh() when the population drifts.
  overlay::UniformGridSpec spec_;
  std::vector<detail::CellSoA> grid_;
  std::size_t built_for_ = 0;  ///< rect_count_ the grid was sized for
};

}  // namespace geogrid::pubsub
