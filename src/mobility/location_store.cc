#include "mobility/location_store.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/simd.h"

namespace geogrid::mobility {

namespace {

constexpr std::int64_t kMinCell = std::numeric_limits<std::int32_t>::min();
constexpr std::int64_t kMaxCell = std::numeric_limits<std::int32_t>::max();
constexpr double kInf = std::numeric_limits<double>::infinity();

/// Relative widening of a cell edge.  floor(v / cell_size) can bucket a
/// coordinate a few ulps of the edge on the far side of it (both the
/// division and the edge's own product round), so each edge moves out by
/// this share of its magnitude plus one cell size — thousands of ulps,
/// and still a negligible fraction of a cell.
constexpr double kEdgeSlack = 0x1p-44;

/// Records held per pass of the range filters: the wide path's SIMD index
/// buffer and the bucket path's candidate-slot buffer, both on the stack.
constexpr std::size_t kChunk = 1024;

}  // namespace

void NearestSet::push(double dist, const LocationRecord& record) {
  if (heap_.size() < k_) {
    heap_.push_back(Entry{dist, record});
    std::push_heap(heap_.begin(), heap_.end(), precedes);
    return;
  }
  std::pop_heap(heap_.begin(), heap_.end(), precedes);
  heap_.back() = Entry{dist, record};
  std::push_heap(heap_.begin(), heap_.end(), precedes);
}

void NearestSet::take_sorted(std::vector<LocationRecord>& out) {
  std::sort_heap(heap_.begin(), heap_.end(), precedes);
  out.reserve(out.size() + heap_.size());
  for (const Entry& e : heap_) out.push_back(e.record);
  heap_.clear();
}

std::int32_t LocationStore::cell_coord(double v) const noexcept {
  // Saturated before the cast, which is undefined out of range; NaN fails
  // the first compare and lands in the lowest cell.
  const double c = std::floor(v / cell_size_);
  const auto lo = static_cast<double>(kMinCell);
  const auto hi = static_cast<double>(kMaxCell);
  return static_cast<std::int32_t>(c > lo ? (c < hi ? c : hi) : lo);
}

double LocationStore::cell_lo(std::int64_t c) const noexcept {
  if (c <= kMinCell) return -kInf;
  const double edge = static_cast<double>(c) * cell_size_;
  return edge - (std::abs(edge) + cell_size_) * kEdgeSlack;
}

double LocationStore::cell_hi(std::int64_t c) const noexcept {
  if (c >= kMaxCell) return kInf;
  const double edge = static_cast<double>(c + 1) * cell_size_;
  return edge + (std::abs(edge) + cell_size_) * kEdgeSlack;
}

double LocationStore::cell_distance(std::int64_t cx, std::int64_t cy,
                                    const Point& p) const noexcept {
  const double dx = std::max({cell_lo(cx) - p.x, 0.0, p.x - cell_hi(cx)});
  const double dy = std::max({cell_lo(cy) - p.y, 0.0, p.y - cell_hi(cy)});
  return std::hypot(dx, dy);
}

std::uint64_t LocationStore::cell_key_of(const Point& p) const noexcept {
  return pack(cell_coord(p.x), cell_coord(p.y));
}

void LocationStore::cell_insert(std::uint64_t key, std::uint32_t slot) {
  auto [bucket, inserted] = cells_.try_emplace(key);
  // First resident of a cell: reserve a few slots up front so the common
  // several-users-per-cell case never reallocates mid-ingest.
  if (inserted) bucket->reserve(8);
  bucket->push_back(slot);
}

void LocationStore::cell_remove(std::uint64_t key, std::uint32_t slot) {
  auto* bucket = cells_.find(key);
  if (bucket == nullptr) return;
  const auto pos = std::find(bucket->begin(), bucket->end(), slot);
  if (pos != bucket->end()) {
    // Swap-and-pop: bucket order is irrelevant — range() filters by the
    // cover test and k_nearest() re-sorts candidates by distance, so no
    // caller observes in-bucket ordering.
    *pos = bucket->back();
    bucket->pop_back();
  }
  if (bucket->empty()) cells_.erase(key);
}

void LocationStore::cell_replace(std::uint64_t key, std::uint32_t old_slot,
                                 std::uint32_t new_slot) {
  auto* bucket = cells_.find(key);
  if (bucket == nullptr) return;
  const auto pos = std::find(bucket->begin(), bucket->end(), old_slot);
  if (pos != bucket->end()) *pos = new_slot;
}

bool LocationStore::ingest(const LocationRecord& record) {
  auto [slot_ptr, inserted] =
      index_.try_emplace(record.user, static_cast<std::uint32_t>(0));
  if (!inserted) {
    const std::uint32_t slot = *slot_ptr;
    if (seqs_[slot] >= record.seq) return false;  // stale or replay
    const std::uint64_t new_key = cell_key_of(record.position);
    xs_[slot] = record.position.x;
    ys_[slot] = record.position.y;
    seqs_[slot] = record.seq;
    timestamps_[slot] = record.timestamp;
    if (cell_keys_[slot] != new_key) {
      cell_remove(cell_keys_[slot], slot);
      cell_insert(new_key, slot);
      cell_keys_[slot] = new_key;
    }
    return true;
  }
  const auto slot = static_cast<std::uint32_t>(users_.size());
  *slot_ptr = slot;
  const std::uint64_t key = cell_key_of(record.position);
  users_.push_back(record.user);
  xs_.push_back(record.position.x);
  ys_.push_back(record.position.y);
  seqs_.push_back(record.seq);
  timestamps_.push_back(record.timestamp);
  cell_keys_.push_back(key);
  cell_insert(key, slot);
  return true;
}

std::optional<LocationRecord> LocationStore::locate(UserId user) const {
  const auto* slot = index_.find(user);
  if (slot == nullptr) return std::nullopt;
  return record_at(*slot);
}

void LocationStore::remove_slot(std::uint32_t slot) {
  cell_remove(cell_keys_[slot], slot);
  index_.erase(users_[slot]);
  const auto last = static_cast<std::uint32_t>(users_.size() - 1);
  if (slot != last) {
    // Dense columns stay dense: the last record moves into the hole, and
    // both its index entry and its cell-bucket slot are repointed.
    users_[slot] = users_[last];
    xs_[slot] = xs_[last];
    ys_[slot] = ys_[last];
    seqs_[slot] = seqs_[last];
    timestamps_[slot] = timestamps_[last];
    cell_keys_[slot] = cell_keys_[last];
    *index_.find(users_[slot]) = slot;
    cell_replace(cell_keys_[slot], last, slot);
  }
  users_.pop_back();
  xs_.pop_back();
  ys_.pop_back();
  seqs_.pop_back();
  timestamps_.pop_back();
  cell_keys_.pop_back();
}

bool LocationStore::erase(UserId user) {
  const auto* slot = index_.find(user);
  if (slot == nullptr) return false;
  remove_slot(*slot);
  return true;
}

bool LocationStore::erase_if_stale(UserId user, std::uint64_t max_seq) {
  const auto* slot = index_.find(user);
  if (slot == nullptr || seqs_[*slot] > max_seq) return false;
  remove_slot(*slot);
  return true;
}

void LocationStore::clear() {
  users_.clear();
  xs_.clear();
  ys_.clear();
  seqs_.clear();
  timestamps_.clear();
  cell_keys_.clear();
  index_.clear();
  cells_.clear();
}

std::vector<LocationRecord> LocationStore::range(const Rect& rect) const {
  std::vector<LocationRecord> out;
  range_into(rect, out);
  return out;
}

void LocationStore::range_into(const Rect& rect,
                               std::vector<LocationRecord>& out) const {
  // The accept test is rect.covers(p), x_lo < px <= x_hi and
  // y_lo < py <= y_hi, which is exactly the branch-free test both paths
  // compute.
  const double x_lo = rect.x;
  const double x_hi = rect.right();
  const double y_lo = rect.y;
  const double y_hi = rect.top();
  if (users_.empty() || !(x_lo < x_hi && y_lo < y_hi)) return;
  // Points are bucketed by the same monotone floor as the edges, so every
  // hit lies in a cell of [cell(lo), cell(hi)] on each axis.  The walk
  // counts in 64 bits: a rect in the saturated end cell has
  // cx1 == INT32_MAX, and an int32 counter would overflow stepping past it.
  const std::int64_t cx0 = cell_coord(x_lo);
  const std::int64_t cx1 = cell_coord(x_hi);
  const std::int64_t cy0 = cell_coord(y_lo);
  const std::int64_t cy1 = cell_coord(y_hi);
  // Wide rects (the geofence/region-sweep shape) would visit at least as
  // many grid cells as exist — there the bucket walk is pure pointer-chasing
  // overhead, and a linear SIMD sweep of the coordinate columns wins on
  // both instruction count and cache behaviour.  Path choice is a pure
  // function of (store contents, rect).  The two paths emit the same hits
  // in different orders; QueryEngine orders every range answer by user id,
  // so the path never shows in a result or its serialization.  Each axis
  // spans at most 2^32 cells, so the product is taken only once both
  // factors are below the cell count (< 2^32) and cannot overflow.
  const auto span_x = static_cast<std::uint64_t>(cx1 - cx0 + 1);
  const auto span_y = static_cast<std::uint64_t>(cy1 - cy0 + 1);
  const std::uint64_t cells = cells_.size();
  if (span_x >= cells || span_y >= cells || span_x * span_y >= cells) {
    std::uint32_t hits[kChunk];
    const std::size_t n = users_.size();
    for (std::size_t base = 0; base < n; base += kChunk) {
      const std::size_t len = std::min(kChunk, n - base);
      const std::size_t found = common::filter_points_in_rect(
          xs_.data() + base, ys_.data() + base, len, x_lo, x_hi, y_lo, y_hi,
          hits);
      for (std::size_t j = 0; j < found; ++j) {
        out.push_back(record_at(static_cast<std::uint32_t>(base) + hits[j]));
      }
    }
    return;
  }
  // Bucket path: each bucket's slots go through the slot filter, whose
  // portable tier tests without a data-dependent branch.
  std::uint32_t slots[kChunk];
  for (std::int64_t cx = cx0; cx <= cx1; ++cx) {
    for (std::int64_t cy = cy0; cy <= cy1; ++cy) {
      const auto* bucket = cells_.find(
          pack(static_cast<std::int32_t>(cx), static_cast<std::int32_t>(cy)));
      if (bucket == nullptr) continue;
      for (std::size_t base = 0; base < bucket->size(); base += kChunk) {
        const std::size_t len = std::min(kChunk, bucket->size() - base);
        const std::size_t found = common::filter_slots_in_rect(
            xs_.data(), ys_.data(), bucket->data() + base, len, x_lo, x_hi,
            y_lo, y_hi, slots);
        for (std::size_t j = 0; j < found; ++j) {
          out.push_back(record_at(slots[j]));
        }
      }
    }
  }
}

std::vector<LocationRecord> LocationStore::k_nearest(const Point& p,
                                                     std::size_t k) const {
  NearestSet best;
  best.reset(k);
  k_nearest_into(p, best);
  std::vector<LocationRecord> out;
  best.take_sorted(out);
  return out;
}

void LocationStore::k_nearest_into(const Point& p, NearestSet& best) const {
  if (users_.empty() || best.k_ == 0 || !std::isfinite(p.x) ||
      !std::isfinite(p.y)) {
    return;
  }
  // `reach` and its square track the caller's k-th best (+inf until the
  // set is full): a bound beyond reach proves its records cannot enter.
  double reach = best.reach();
  double reach2 = reach * reach + 0x1p-1060;
  // The squared distance rejects a resident without a square root.  reach2
  // exceeds the square of every distance() <= kth by a wide relative
  // margin, and by an absolute one where the squares underflow; a square
  // that overflows to +inf is only rejected when reach2 is finite, which
  // then means distance() > kth too.
  const auto scan = [&](const std::vector<std::uint32_t>& bucket) {
    for (const std::uint32_t slot : bucket) {
      const double dx = xs_[slot] - p.x;
      const double dy = ys_[slot] - p.y;
      if (dx * dx + dy * dy > reach2) continue;
      const double d = std::hypot(dx, dy);  // == distance(position, p)
      if (!best.admits(d, users_[slot])) continue;
      best.push(d, record_at(slot));
      if (best.full()) {
        reach = best.reach();
        reach2 = reach * reach + 0x1p-1060;
      }
    }
  };

  // Chebyshev rings of grid coordinates around p's cell, in 64-bit
  // arithmetic: near a saturated cell the ring runs past the int32 range,
  // where no cell exists.
  const std::int64_t pcx = cell_coord(p.x);
  const std::int64_t pcy = cell_coord(p.y);
  const std::uint64_t cells = cells_.size();
  std::uint64_t found = 0;
  const auto visit = [&](std::int64_t cx, std::int64_t cy) {
    if (cx < kMinCell || cx > kMaxCell || cy < kMinCell || cy > kMaxCell) {
      return;
    }
    const auto* bucket = cells_.find(
        pack(static_cast<std::int32_t>(cx), static_cast<std::int32_t>(cy)));
    if (bucket == nullptr) return;
    ++found;
    if (cell_distance(cx, cy, p) > reach) return;
    scan(*bucket);
  };
  visit(pcx, pcy);
  // Ring r is enumerated only while (2r + 1)^2, the coordinates of rings
  // 0..r, stays within the cell count.
  std::int64_t ring = 1;
  for (; found < cells &&
         static_cast<std::uint64_t>((2 * ring + 1) * (2 * ring + 1)) <= cells;
       ++ring) {
    // Every cell of this ring and beyond lies past one of the four lines
    // ring cells from p's cell: p's offset to that side of its own cell
    // plus (ring - 1) cells.
    const double west = p.x - cell_hi(pcx - ring);
    const double east = cell_lo(pcx + ring) - p.x;
    const double south = p.y - cell_hi(pcy - ring);
    const double north = cell_lo(pcy + ring) - p.y;
    if (std::min({west, east, south, north}) > reach) return;
    for (std::int64_t cx = pcx - ring; cx <= pcx + ring; ++cx) {
      visit(cx, pcy - ring);
      visit(cx, pcy + ring);
    }
    for (std::int64_t cy = pcy - ring + 1; cy <= pcy + ring - 1; ++cy) {
      visit(pcx - ring, cy);
      visit(pcx + ring, cy);
    }
  }
  if (found == cells) return;
  // The remaining cells (Chebyshev distance >= ring), nearest bound first,
  // until the bound passes the k-th best.
  std::vector<std::pair<double, std::uint64_t>>& far = best.far_cells_;
  far.clear();
  cells_.for_each([&](std::uint64_t key, const std::vector<std::uint32_t>&) {
    const std::int64_t cx = static_cast<std::int32_t>(key >> 32);
    const std::int64_t cy = static_cast<std::int32_t>(key & 0xffffffffu);
    if (std::max(std::abs(cx - pcx), std::abs(cy - pcy)) < ring) return;
    const double bound = cell_distance(cx, cy, p);
    if (bound <= reach) far.emplace_back(bound, key);
  });
  std::sort(far.begin(), far.end());
  for (const auto& [bound, key] : far) {
    if (bound > reach) break;
    scan(*cells_.find(key));
  }
}

void LocationStore::encode(net::Writer& w) const {
  w.f64(cell_size_);
  w.varint(users_.size());
  // Canonical order: sorted by user id, not by slot.  Slot order depends
  // on ingestion history; the wire bytes must not.
  std::vector<std::uint32_t> slots(users_.size());
  for (std::uint32_t i = 0; i < slots.size(); ++i) slots[i] = i;
  std::sort(slots.begin(), slots.end(),
            [this](std::uint32_t a, std::uint32_t b) {
              return users_[a] < users_[b];
            });
  for (const std::uint32_t slot : slots) net::put(w, record_at(slot));
}

LocationStore LocationStore::decode(net::Reader& r) {
  const double cell_size = r.f64();
  LocationStore store(cell_size);
  const auto n = r.varint();
  for (std::uint64_t i = 0; i < n; ++i) {
    store.ingest(net::get<LocationRecord>(r));
  }
  return store;
}

}  // namespace geogrid::mobility
