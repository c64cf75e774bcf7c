#include "mobility/directory_snapshot.h"

#include <algorithm>
#include <utility>

namespace geogrid::mobility {

void DirectorySnapshot::collect_users(std::vector<UserId>& out) const {
  const std::size_t start = out.size();
  out.reserve(start + state_.size());
  state_.users->for_each(
      [&](UserId id, const UserSlot&) { out.push_back(id); });
  std::sort(out.begin() + static_cast<std::ptrdiff_t>(start), out.end());
}

void DirectorySnapshot::locate_many(
    std::span<const UserId> users, LocateScratch& scratch,
    std::vector<std::optional<LocationRecord>>& out) const {
  out.clear();
  out.resize(users.size());
  auto& order = scratch.order;
  order.clear();
  order.reserve(users.size());
  // Pass 1: resolve the user -> region map (unavoidably random) and stamp
  // each hit with a (shard, region) sort key.
  for (std::uint32_t i = 0; i < users.size(); ++i) {
    const UserSlot* slot = state_.users->find(users[i]);
    if (slot == nullptr) continue;  // out[i] stays nullopt
    const std::uint64_t key =
        (static_cast<std::uint64_t>(
             shard_of_region(slot->region, state_.slices.size()))
         << 32) |
        slot->region.value;
    order.emplace_back(key, i);
  }
  // Pass 2: probe stores in shard-then-region order — one store resolve
  // per region run, and consecutive locates walk the same store's maps.
  std::sort(order.begin(), order.end());
  RegionId current = kInvalidRegion;
  const LocationStore* st = nullptr;
  for (const auto& [key, i] : order) {
    const RegionId region{static_cast<std::uint32_t>(key)};
    if (region != current) {
      st = store(region);
      current = region;
    }
    if (st != nullptr) out[i] = st->locate(users[i]);
  }
}

void DirectoryState::serialize(net::Writer& w) const {
  std::vector<std::pair<RegionId, const LocationStore*>> stores;
  for (const auto& slice : slices) {
    slice->for_each([&](RegionId id, const LocationStore& st) {
      if (st.empty()) return;  // migrated-out regions leave no trace
      stores.emplace_back(id, &st);
    });
  }
  std::sort(stores.begin(), stores.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  w.varint(stores.size());
  for (const auto& [id, st] : stores) {
    net::put(w, id);
    st->encode(w);
  }
}

}  // namespace geogrid::mobility
