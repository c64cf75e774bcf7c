#include "mobility/location_store.h"

#include <algorithm>
#include <cmath>

#include "common/simd.h"

namespace geogrid::mobility {

std::int32_t LocationStore::cell_coord(double v) const noexcept {
  return static_cast<std::int32_t>(std::floor(v / cell_size_));
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

std::optional<std::uint64_t> LocationStore::seq_of(UserId user) const {
  const auto* slot = index_.find(user);
  if (slot == nullptr) return std::nullopt;
  return seqs_[*slot];
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
  if (users_.empty()) return;
  // The accept test is covers_inclusive(p): the closed band below, which is
  // exactly the branch-free test the SIMD filter computes.
  const double x_lo = rect.x - kGeoEps;
  const double x_hi = rect.right() + kGeoEps;
  const double y_lo = rect.y - kGeoEps;
  const double y_hi = rect.top() + kGeoEps;
  const std::int32_t cx0 = cell_coord(rect.x);
  const std::int32_t cx1 = cell_coord(rect.right());
  const std::int32_t cy0 = cell_coord(rect.y);
  const std::int32_t cy1 = cell_coord(rect.top());
  // Wide rects (the geofence/region-sweep shape) would visit at least as
  // many grid cells as exist — there the bucket walk is pure pointer-chasing
  // overhead, and a linear SIMD sweep of the coordinate columns wins on
  // both instruction count and cache behaviour.  Path choice is a pure
  // function of (store contents, rect).  The two paths emit the same hits
  // in different orders; QueryEngine orders every range answer by user id,
  // so the path never shows in a result or its serialization.
  const std::uint64_t span_cells =
      (static_cast<std::uint64_t>(cx1 - cx0) + 1) *
      (static_cast<std::uint64_t>(cy1 - cy0) + 1);
  if (span_cells >= cells_.size()) {
    constexpr std::size_t kChunk = 1024;
    std::uint32_t hits[kChunk];
    const std::size_t n = users_.size();
    for (std::size_t base = 0; base < n; base += kChunk) {
      const std::size_t len = std::min(kChunk, n - base);
      const std::size_t found = common::filter_points_in_band(
          xs_.data() + base, ys_.data() + base, len, x_lo, x_hi, y_lo, y_hi,
          hits);
      for (std::size_t j = 0; j < found; ++j) {
        out.push_back(record_at(static_cast<std::uint32_t>(base) + hits[j]));
      }
    }
    return;
  }
  for (std::int32_t cx = cx0; cx <= cx1; ++cx) {
    for (std::int32_t cy = cy0; cy <= cy1; ++cy) {
      const auto* bucket = cells_.find(pack(cx, cy));
      if (bucket == nullptr) continue;
      for (const std::uint32_t slot : *bucket) {
        const double px = xs_[slot];
        const double py = ys_[slot];
        if (x_lo <= px && px <= x_hi && y_lo <= py && py <= y_hi) {
          out.push_back(record_at(slot));
        }
      }
    }
  }
}

std::vector<LocationRecord> LocationStore::k_nearest(const Point& p,
                                                     std::size_t k) const {
  std::vector<LocationRecord> out;
  if (k == 0 || users_.empty()) return out;
  // Candidates carry their distance so the hot reject path — a record
  // farther than the kth-best — costs one distance computation and one
  // compare, instead of re-deriving distances inside an ordered insert.
  struct Scored {
    double dist;
    std::uint32_t slot;
  };
  std::vector<Scored> best;
  best.reserve(k + 1);
  const auto scored_after = [this](const Scored& a, const Scored& b) {
    if (a.dist != b.dist) return a.dist < b.dist;
    return users_[a.slot] < users_[b.slot];
  };
  // Expanding ring of cells around p.  After collecting k candidates the
  // search may stop once the ring's nearest possible point is farther than
  // the current kth-best distance; it always stops once the rings have
  // found every materialized cell (cells_ holds no empty bucket).
  const std::int32_t pcx = cell_coord(p.x);
  const std::int32_t pcy = cell_coord(p.y);
  std::size_t cells_found = 0;
  for (std::int32_t ring = 0; cells_found < cells_.size(); ++ring) {
    if (best.size() >= k) {
      // Cells in this ring are at least (ring - 1) * cell_size away.
      const double ring_min = (ring - 1) * cell_size_;
      if (ring_min > best.back().dist) break;
    }
    for (std::int32_t cx = pcx - ring; cx <= pcx + ring; ++cx) {
      for (std::int32_t cy = pcy - ring; cy <= pcy + ring; ++cy) {
        if (std::max(std::abs(cx - pcx), std::abs(cy - pcy)) != ring) {
          continue;  // interior cells were visited by smaller rings
        }
        const auto* bucket = cells_.find(pack(cx, cy));
        if (bucket == nullptr) continue;
        ++cells_found;
        for (const std::uint32_t slot : *bucket) {
          const Scored cand{distance(position_at(slot), p), slot};
          if (best.size() >= k && !scored_after(cand, best.back())) continue;
          const auto pos = std::lower_bound(best.begin(), best.end(), cand,
                                            scored_after);
          best.insert(pos, cand);
          if (best.size() > k) best.pop_back();
        }
      }
    }
  }
  out.reserve(best.size());
  for (const Scored& s : best) out.push_back(record_at(s.slot));
  return out;
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
