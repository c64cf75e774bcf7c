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
// The index holds three subscription kinds over one dense slot array:
//
//   * geofence — fire enter/leave when a user crosses the area boundary
//   * range    — geofence plus a move event for motion inside the area
//     (the paper's radius-γ continuous query mapped to its bounding box)
//   * friend   — track one named user everywhere (no geometry)
//
// Storage is hot/cold split.  The hot side is what the match loop reads:
// per-grid-cell structure-of-arrays columns (lo_x/lo_y/hi_x/hi_y edge
// doubles, subscription id, packed slot+kind), each cell one contiguous
// allocation, so a point probe is one cell lookup followed by a SIMD
// half-open containment scan (common::filter_rects_covering_point) that
// streams four compares and a movemask per lane group — no per-candidate
// pointer chase, no branch per rect.  The probe emits (id, slot, kind)
// CoverMatch triples, so the notification merge loop downstream never
// touches the slot array per notification either.  The cold side — the
// filter string and subscriber address nobody reads while matching — lives
// in a parallel side-table touched only by subscribe/unsubscribe and
// notification serialization.
//
// Rect-carrying kinds live in a uniform grid over the plane, built on the
// same UniformGridSpec math as overlay::RegionResolver so every spatial
// index in the codebase buckets coordinates identically.  Each grid cell
// keeps its columns sorted by id; a rect is inserted into every cell it
// touches, and the half-open Rect::covers test (open on the west and
// south edges, closed on the east and north) means a point probe needs
// exactly one cell — the candidates arrive pre-sorted and covering()
// never sorts or deduplicates.  It is LocationStore::range's rule too, so
// a range query and a geofence over one rect agree about every user,
// those on its edges and corners included.  Friend subscriptions skip the
// grid entirely and index by the tracked user id.
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

/// Hot half of one resident subscription: everything the match path could
/// ever read, nothing it couldn't.  `friend_user` is meaningful only for
/// kFriend; `area` only for the rect-carrying kinds.
struct SubRecord {
  std::uint64_t id = 0;
  SubKind kind = SubKind::kGeofence;
  Rect area{};
  UserId friend_user{};

  friend bool operator==(const SubRecord&, const SubRecord&) = default;
};

/// Cold half, parallel to the hot slots: read only off the match path
/// (subscribe/unsubscribe maintenance, notification serialization).
struct SubCold {
  NodeId subscriber{};
  std::string filter;
};

/// One covering() hit — the (id, slot, kind) triple the notification merge
/// loop consumes without dereferencing the slot array.
struct CoverMatch {
  std::uint64_t id = 0;
  std::uint32_t slot = 0;
  SubKind kind = SubKind::kGeofence;

  friend bool operator==(const CoverMatch&, const CoverMatch&) = default;
};

namespace detail {

/// One grid cell's subscriptions as structure-of-arrays columns in a
/// single allocation: [lo_x | lo_y | hi_x | hi_y] as doubles, then the
/// u64 id column, then the packed u32 slot+kind column, each `capacity()`
/// entries long.  One allocation per cell (not six vectors) keeps the
/// per-cell header at pointer+2x32bit even when a million sparse cells
/// hold one rect each, and the probe's four coordinate columns stream
/// linearly for the SIMD scan.  Entries stay sorted by id; insert/erase
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
  const std::uint32_t* slot_kinds() const noexcept {
    return reinterpret_cast<const std::uint32_t*>(data_ + 5 * bytes_per_col());
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
              std::uint32_t slot_kind);

  /// Appends (rebuild path; caller feeds ascending ids).
  void append(const Rect& area, std::uint64_t id, std::uint32_t slot_kind) {
    insert(size_, area, id, slot_kind);
  }

  /// Removes the entry at `pos`, shifting each column's tail down.
  void erase(std::uint32_t pos);

  void set_slot_kind(std::uint32_t pos, std::uint32_t v) noexcept {
    reinterpret_cast<std::uint32_t*>(data_ + 5 * bytes_per_col())[pos] = v;
  }

 private:
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
  // u32 slot+kind column.
  std::byte* data_ = nullptr;
  std::uint32_t size_ = 0;
  std::uint32_t cap_ = 0;
};

}  // namespace detail

class SubscriptionIndex {
 public:
  explicit SubscriptionIndex(const Rect& plane)
      : plane_(plane), spec_(overlay::UniformGridSpec::over(plane, 1)) {
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

  /// Wire-message convenience for unsubscribe.
  bool apply(const net::Unsubscribe& msg) { return unsubscribe(msg.sub_id); }

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

  /// Friend subscriptions tracking `user`, ascending sub-id order (null
  /// when nobody tracks the user).
  const std::vector<std::pair<std::uint64_t, std::uint32_t>>* friends_of(
      UserId user) const {
    return friends_.find(user);
  }

  /// Hot record of a resident subscription id (null when not resident).
  const SubRecord* find(std::uint64_t sub_id) const;
  const SubRecord& at(std::uint32_t slot) const { return hot_[slot]; }
  /// Cold side-table row of a slot (filter, subscriber) — off the match
  /// path by construction.
  const SubCold& cold_at(std::uint32_t slot) const { return cold_[slot]; }
  /// Filter string of a resident subscription id, null when not resident.
  const std::string* filter_of(std::uint64_t sub_id) const {
    const std::uint32_t* slot = index_.find(sub_id);
    return slot == nullptr ? nullptr : &cold_[*slot].filter;
  }

  std::size_t size() const noexcept { return hot_.size(); }
  std::size_t rect_count() const noexcept { return rect_count_; }
  std::size_t grid_dim() const noexcept { return spec_.dim; }
  const Rect& plane() const noexcept { return plane_; }

  /// Exhaustive consistency audit of hot columns vs cold table vs grid vs
  /// friend lists (test support; O(subscriptions x covered cells)).
  /// Returns false on the first inconsistency.
  bool validate() const;

 private:
  /// (sub id, slot) pair; friend lists stay sorted by id so probes emit
  /// canonical order without sorting.
  using Entry = std::pair<std::uint64_t, std::uint32_t>;

  /// kind lives in the low 2 bits so a swap-remove repoint (slot changes,
  /// kind doesn't) can rewrite the whole word.
  static constexpr std::uint32_t pack_slot_kind(std::uint32_t slot,
                                                SubKind kind) noexcept {
    return (slot << 2) | static_cast<std::uint32_t>(kind);
  }
  static constexpr std::uint32_t slot_of(std::uint32_t sk) noexcept {
    return sk >> 2;
  }
  static constexpr SubKind kind_of(std::uint32_t sk) noexcept {
    return static_cast<SubKind>(sk & 3u);
  }

  void insert(SubRecord rec, SubCold cold);
  void grid_insert(const SubRecord& sub, std::uint32_t slot);
  void grid_remove(const SubRecord& sub);
  void grid_replace_slot(const SubRecord& sub, std::uint32_t new_slot);
  void friends_insert(const SubRecord& sub, std::uint32_t slot);
  void friends_remove(const SubRecord& sub);
  void friends_replace_slot(const SubRecord& sub, std::uint32_t new_slot);
  void rebuild_grid();

  Rect plane_;
  std::vector<SubRecord> hot_;   ///< dense slot array, match-path data only
  std::vector<SubCold> cold_;    ///< parallel cold side-table
  common::FlatMap<std::uint64_t, std::uint32_t> index_;  ///< id -> slot
  common::FlatMap<UserId, std::vector<Entry>> friends_;
  std::size_t rect_count_ = 0;  ///< resident non-friend subscriptions

  // Uniform grid over the plane (UniformGridSpec: same cell math as the
  // region resolver).  Sized so the average subscription rect covers O(1)
  // cells; rebuilt lazily by refresh() when the population drifts.
  overlay::UniformGridSpec spec_;
  std::vector<detail::CellSoA> grid_;
  std::size_t built_for_ = 0;  ///< rect_count_ the grid was sized for
  bool grid_valid_ = true;
};

}  // namespace geogrid::pubsub
