#include "pubsub/subscription_index.h"

#include <algorithm>
#include <functional>
#include <utility>

#include "common/simd.h"

namespace geogrid::pubsub {
namespace detail {

void CellSoA::reserve(std::uint32_t cap) {
  if (cap > cap_) grow(cap, size_);
}

void CellSoA::grow(std::uint32_t min_cap, std::uint32_t gap_pos) {
  std::uint32_t new_cap = cap_ == 0 ? 2 : cap_ * 2;
  if (new_cap < min_cap) new_cap = min_cap;
  const std::size_t col = static_cast<std::size_t>(new_cap) * sizeof(double);
  std::byte* fresh =
      new std::byte[(kColumns - 1) * col + new_cap * sizeof(SubKind)];
  if (data_ != nullptr) {
    // Copy each column, leaving a one-entry hole at gap_pos (== size_ when
    // reserving: the hole degenerates to nothing).
    const std::size_t old_col = bytes_per_col();
    for (std::size_t c = 0; c < kColumns; ++c) {
      const std::size_t elem = elem_size(c);
      const std::byte* src = data_ + c * old_col;
      std::byte* dst = fresh + c * col;
      std::memcpy(dst, src, gap_pos * elem);
      std::memcpy(dst + (gap_pos + 1) * elem, src + gap_pos * elem,
                  (size_ - gap_pos) * elem);
    }
    delete[] data_;
  }
  data_ = fresh;
  cap_ = new_cap;
}

void CellSoA::insert(std::uint32_t pos, const Rect& area, std::uint64_t id,
                     SubKind kind) {
  if (size_ == cap_) {
    grow(size_ + 1, pos);
  } else if (pos < size_) {
    for (std::size_t c = 0; c < kColumns; ++c) {
      const std::size_t elem = elem_size(c);
      std::byte* base = data_ + c * bytes_per_col();
      std::memmove(base + (pos + 1) * elem, base + pos * elem,
                   (size_ - pos) * elem);
    }
  }
  col_d_mut(0)[pos] = area.x;
  col_d_mut(1)[pos] = area.y;
  col_d_mut(2)[pos] = area.right();
  col_d_mut(3)[pos] = area.top();
  reinterpret_cast<std::uint64_t*>(data_ + 4 * bytes_per_col())[pos] = id;
  reinterpret_cast<SubKind*>(data_ + 5 * bytes_per_col())[pos] = kind;
  ++size_;
}

void CellSoA::erase(std::uint32_t pos) {
  const std::uint32_t tail = size_ - pos - 1;
  for (std::size_t c = 0; c < kColumns; ++c) {
    const std::size_t elem = elem_size(c);
    std::byte* base = data_ + c * bytes_per_col();
    std::memmove(base + pos * elem, base + (pos + 1) * elem, tail * elem);
  }
  --size_;
}

}  // namespace detail

void SubscriptionIndex::subscribe(const net::Subscribe& msg, SubKind kind) {
  insert(SubRecord{msg.sub_id,
                   kind == SubKind::kFriend ? SubKind::kGeofence : kind,
                   msg.area, UserId{}, msg.filter});
}

void SubscriptionIndex::subscribe_friend(const net::Subscribe& msg,
                                         UserId friend_user) {
  insert(SubRecord{msg.sub_id, SubKind::kFriend, Rect{}, friend_user,
                   msg.filter});
}

void SubscriptionIndex::insert(SubRecord rec) {
  unsubscribe(rec.id);  // a resubscribe replaces the resident record
  *position_.try_emplace(rec.id).first =
      static_cast<std::uint32_t>(records_.size());
  if (rec.kind == SubKind::kFriend) {
    std::vector<std::uint64_t>& ids =
        *friends_.try_emplace(rec.friend_user).first;
    ids.insert(std::lower_bound(ids.begin(), ids.end(), rec.id), rec.id);
  } else {
    ++rect_count_;
    spec_.each_cell(rec.area, [&](std::size_t c) {
      detail::CellSoA& cell = grid_[c];
      cell.insert(cell.lower_bound(rec.id), rec.area, rec.id, rec.kind);
    });
  }
  records_.push_back(std::move(rec));
}

bool SubscriptionIndex::unsubscribe(std::uint64_t sub_id) {
  const std::uint32_t* found = position_.find(sub_id);
  if (found == nullptr) return false;
  const std::uint32_t pos = *found;
  const SubRecord& s = records_[pos];
  if (s.kind == SubKind::kFriend) {
    std::vector<std::uint64_t>& ids = *friends_.find(s.friend_user);
    ids.erase(std::lower_bound(ids.begin(), ids.end(), sub_id));
    if (ids.empty()) friends_.erase(s.friend_user);
  } else {
    spec_.each_cell(s.area, [&](std::size_t c) {
      detail::CellSoA& cell = grid_[c];
      cell.erase(cell.lower_bound(sub_id));
    });
    --rect_count_;
  }
  position_.erase(sub_id);
  // Swap-remove: the last record moves into the hole.  The grid and the
  // friend lists name it by id, so only the id map is repointed.
  if (pos + 1 != records_.size()) {
    records_[pos] = std::move(records_.back());
    *position_.find(records_[pos].id) = pos;
  }
  records_.pop_back();
  return true;
}

void SubscriptionIndex::refresh() {
  if (rect_count_ <= built_for_ * 2 && rect_count_ >= built_for_ / 2) return;
  rebuild_grid();
}

void SubscriptionIndex::rebuild_grid() {
  // Pitch near the mean subscription-rect side: the average rect covers
  // O(1) cells and a point probe's candidate list stays proportional to
  // the local subscription density.  Capped by ~2*sqrt(N) cells per axis
  // (grid memory stays linear in the population) and an absolute bound.
  const Rect plane = spec_.plane;
  double side_sum = 0.0;
  for (const SubRecord& s : records_) {
    if (s.kind == SubKind::kFriend) continue;
    side_sum += 0.5 * (s.area.width + s.area.height);
  }
  std::size_t dim = 1;
  if (rect_count_ > 0 && side_sum > 0.0) {
    const double mean_side = side_sum / static_cast<double>(rect_count_);
    const double plane_side = plane.width < plane.height ? plane.width
                                                         : plane.height;
    std::size_t sqrt_dim = 1;
    while (sqrt_dim * sqrt_dim < rect_count_) ++sqrt_dim;
    std::size_t cap = 2 * sqrt_dim;
    if (cap > 1024) cap = 1024;
    dim = static_cast<std::size_t>(plane_side / mean_side);
    if (dim < 1) dim = 1;
    if (dim > cap) dim = cap;
  }
  spec_ = overlay::UniformGridSpec::over(plane, dim);

  // Three passes keep the rebuild shift-free and allocation-exact: count
  // entries per cell, reserve each cell once, then append in ascending
  // sub-id order — the columns come out sorted without ever sorting.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> by_id;  // (id, pos)
  by_id.reserve(rect_count_);
  for (std::uint32_t pos = 0; pos < records_.size(); ++pos) {
    if (records_[pos].kind == SubKind::kFriend) continue;
    by_id.emplace_back(records_[pos].id, pos);
  }
  std::sort(by_id.begin(), by_id.end());

  std::vector<std::uint32_t> counts(spec_.cell_count(), 0);
  for (const auto& [id, pos] : by_id) {
    spec_.each_cell(records_[pos].area, [&](std::size_t c) { ++counts[c]; });
  }
  grid_.clear();
  grid_.resize(spec_.cell_count());
  for (std::size_t c = 0; c < grid_.size(); ++c) grid_[c].reserve(counts[c]);
  for (const auto& [id, pos] : by_id) {
    const SubRecord& s = records_[pos];
    spec_.each_cell(s.area,
                    [&](std::size_t c) { grid_[c].append(s.area, id, s.kind); });
  }
  built_for_ = rect_count_;
}

void SubscriptionIndex::covering(const Point& p,
                                 std::vector<CoverMatch>& out) const {
  out.clear();
  if (rect_count_ == 0) return;
  // One cell is enough: a rect covering p was inserted into every cell it
  // touches, and the clamped cell of p lies inside [cell(r.x), cell(r.right)]
  // x [cell(r.y), cell(r.top)] whenever the half-open cover test passes.
  const detail::CellSoA& cell =
      grid_[spec_.index(spec_.cell_x(p.x), spec_.cell_y(p.y))];
  const std::uint32_t n = cell.size();
  // Chunked through a stack buffer: the SIMD scan stays allocation-free
  // whatever the cell population, and indices stay ascending.
  constexpr std::uint32_t kChunk = 128;
  std::uint32_t lanes[kChunk];
  for (std::uint32_t base = 0; base < n; base += kChunk) {
    const std::uint32_t len = n - base < kChunk ? n - base : kChunk;
    const std::size_t hits = common::filter_rects_covering_point(
        cell.lo_x() + base, cell.lo_y() + base, cell.hi_x() + base,
        cell.hi_y() + base, len, p.x, p.y, lanes);
    for (std::size_t k = 0; k < hits; ++k) {
      const std::uint32_t idx = base + lanes[k];
      out.push_back(CoverMatch{cell.ids()[idx], cell.kinds()[idx]});
    }
  }
}

bool SubscriptionIndex::validate() const {
  if (position_.size() != records_.size()) return false;

  std::size_t rects = 0;
  std::size_t friend_subs = 0;
  std::size_t expected_grid_entries = 0;
  for (std::uint32_t pos = 0; pos < records_.size(); ++pos) {
    const SubRecord& s = records_[pos];
    const std::uint32_t* mapped = position_.find(s.id);
    if (mapped == nullptr || *mapped != pos) return false;
    if (s.kind == SubKind::kFriend) {
      ++friend_subs;
      const std::vector<std::uint64_t>* ids = friends_.find(s.friend_user);
      if (ids == nullptr ||
          !std::binary_search(ids->begin(), ids->end(), s.id)) {
        return false;
      }
      continue;
    }
    ++rects;
    // Every covered cell must hold exactly this sub's columns at the id's
    // sorted position: edges as stored half-open bounds, and its kind.
    const Rect& r = s.area;
    bool cells_hold_it = true;
    spec_.each_cell(r, [&](std::size_t c) {
      ++expected_grid_entries;
      const detail::CellSoA& cell = grid_[c];
      const std::uint32_t i = cell.lower_bound(s.id);
      cells_hold_it = cells_hold_it && i < cell.size() &&
                      cell.ids()[i] == s.id && cell.kinds()[i] == s.kind &&
                      cell.lo_x()[i] == r.x && cell.lo_y()[i] == r.y &&
                      cell.hi_x()[i] == r.right() && cell.hi_y()[i] == r.top();
    });
    if (!cells_hold_it) return false;
  }
  if (rects != rect_count_) return false;

  std::size_t grid_entries = 0;
  for (const detail::CellSoA& cell : grid_) {
    grid_entries += cell.size();
    for (std::uint32_t i = 1; i < cell.size(); ++i) {
      if (cell.ids()[i - 1] >= cell.ids()[i]) return false;  // sorted, unique
    }
  }
  if (grid_entries != expected_grid_entries) return false;

  // Each friend list ascending and unique, and no id beyond the records'.
  std::size_t friend_entries = 0;
  bool lists_sorted = true;
  friends_.for_each([&](const UserId&, const std::vector<std::uint64_t>& ids) {
    friend_entries += ids.size();
    lists_sorted = lists_sorted &&
                   std::adjacent_find(ids.begin(), ids.end(),
                                      std::greater_equal<>()) == ids.end();
  });
  return lists_sorted && friend_entries == friend_subs;
}

}  // namespace geogrid::pubsub
