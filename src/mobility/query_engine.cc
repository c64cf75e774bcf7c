#include "mobility/query_engine.h"

#include <array>
#include <cmath>
#include <utility>

namespace geogrid::mobility {

namespace {

/// Orders range hits by user id.  Fills `keys` with (user id << 32 | hit
/// index) and sorts them with a stable LSD radix sort over the id's four
/// 8-bit digits, moving keys between `keys` and `spare`; returns the one
/// that ends up holding the order.  One pass counts every digit, and a
/// digit that every key shares is skipped, since its pass would move
/// nothing: ids below 2^24 take at most three passes.  One snapshot holds one
/// record per user, so ids are unique within an answer and the order is
/// the one std::sort by user id gives.
const std::vector<std::uint64_t>& order_by_user(
    const std::vector<LocationRecord>& hits, std::vector<std::uint64_t>& keys,
    std::vector<std::uint64_t>& spare) {
  constexpr int kDigits = 4;
  const std::size_t n = hits.size();
  keys.resize(n);
  spare.resize(n);
  if (n == 0) return keys;
  std::array<std::array<std::uint32_t, 256>, kDigits> counts{};
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t user = hits[i].user.value;
    keys[i] = std::uint64_t{user} << 32 | i;
    for (int d = 0; d < kDigits; ++d) ++counts[d][(user >> (8 * d)) & 0xff];
  }
  std::vector<std::uint64_t>* src = &keys;
  std::vector<std::uint64_t>* dst = &spare;
  for (int d = 0; d < kDigits; ++d) {
    const int shift = 32 + 8 * d;
    std::array<std::uint32_t, 256>& count = counts[d];
    if (count[((*src)[0] >> shift) & 0xff] == n) continue;
    std::uint32_t next = 0;
    for (std::uint32_t& slot : count) next += std::exchange(slot, next);
    for (const std::uint64_t key : *src) {
      (*dst)[count[(key >> shift) & 0xff]++] = key;
    }
    std::swap(src, dst);
  }
  return *src;
}

bool finite(const Point& p) { return std::isfinite(p.x) && std::isfinite(p.y); }

bool finite(const Rect& r) {
  return std::isfinite(r.x) && std::isfinite(r.y) && std::isfinite(r.width) &&
         std::isfinite(r.height);
}

}  // namespace

QueryResult QueryResult::decode(net::Reader& r) {
  QueryResult out;
  const std::uint64_t kind = r.varint();
  if (kind > static_cast<std::uint64_t>(Query::Kind::kNearest)) {
    throw net::CodecError("unknown query result kind " + std::to_string(kind));
  }
  out.kind = static_cast<Query::Kind>(kind);
  if (out.kind == Query::Kind::kLocate) {
    out.found = r.boolean();
    if (out.found) net::get(r, out.located);
    return out;
  }
  net::get(r, out.records);
  return out;
}

void QueryEngine::serialize(net::Writer& w,
                            std::span<const QueryResult> results) {
  w.varint(results.size());
  for (const QueryResult& r : results) r.encode(w);
}

QueryEngine::QueryEngine(ShardedDirectory& directory)
    : QueryEngine(directory, Options{}) {}

QueryEngine::QueryEngine(ShardedDirectory& directory, Options options)
    : directory_(directory),
      resolver_(directory.resolver()),
      pool_(options.threads),
      task_states_(pool_.task_count()),
      reader_(directory.register_reader()) {}

std::vector<QueryResult> QueryEngine::run(std::span<const Query> batch) {
  const auto snapshot = directory_.publish_snapshot();
  return run_on(*snapshot, batch);
}

std::vector<QueryResult> QueryEngine::run_pinned(std::span<const Query> batch) {
  common::EpochDomain::Guard pin(reader_);
  const DirectorySnapshot* snapshot = directory_.pinned_snapshot();
  if (snapshot == nullptr) {
    // Nothing published yet: every locate misses, every scan is empty.
    // One empty slice keeps store()'s shard modulus well-defined.
    static const DirectorySnapshot kEmpty(
        0,
        DirectoryState{std::make_shared<const UserMap>(),
                       {std::make_shared<const StoreMap>()}},
        0, std::nullopt);
    return run_on(kEmpty, batch);
  }
  return run_on(*snapshot, batch);
}

std::vector<QueryResult> QueryEngine::run_on(const DirectorySnapshot& snapshot,
                                             std::span<const Query> batch) {
  std::vector<QueryResult> results(batch.size());
  const std::size_t tasks = pool_.task_count();
  // Contiguous static chunks: which task computes a request never changes
  // the request's answer (exec reads only frozen state), so the result
  // vector — and its serialization — is thread-count invariant.  Task t's
  // state slab is thread-affine and cacheline-aligned: scratch stays warm,
  // tallies never false-share.
  pool_.run([&](std::size_t t) {
    TaskState& state = task_states_[t];
    state.tally = Counters{};
    const std::size_t lo = batch.size() * t / tasks;
    const std::size_t hi = batch.size() * (t + 1) / tasks;
    for (std::size_t i = lo; i < hi; ++i) {
      exec(snapshot, batch[i], results[i], state.scratch, state.tally);
    }
  });
  // Deterministic aggregation: sum per-task tallies in task order.
  for (const TaskState& ts : task_states_) {
    const Counters& tc = ts.tally;
    counters_.queries += tc.queries;
    counters_.locates += tc.locates;
    counters_.locate_hits += tc.locate_hits;
    counters_.ranges += tc.ranges;
    counters_.nearests += tc.nearests;
    counters_.records_returned += tc.records_returned;
    counters_.regions_scanned += tc.regions_scanned;
  }
  ++counters_.batches;
  counters_.last_epoch = snapshot.epoch();
  return results;
}

void QueryEngine::exec(const DirectorySnapshot& snapshot, const Query& q,
                       QueryResult& out, Scratch& scratch,
                       Counters& c) const {
  out.kind = q.kind;
  ++c.queries;
  switch (q.kind) {
    case Query::Kind::kLocate: {
      ++c.locates;
      if (auto rec = snapshot.locate(q.user)) {
        out.found = true;
        out.located = *rec;
        ++c.locate_hits;
        ++c.records_returned;
      }
      return;
    }
    case Query::Kind::kRange: {
      ++c.ranges;
      if (!finite(q.rect)) return;
      // Grid-indexed discovery merged across regions, then canonically
      // ordered by user id: a store's internal order reflects insertion
      // order, so without the ordering two directories holding identical
      // records would answer in different orders whenever their updates
      // arrived interleaved differently (e.g. concurrent wire clients vs
      // a sequential replay).  Ordering makes the result a pure function
      // of directory *content* — identical bytes for every shard layout
      // and every ingestion schedule.  Hits collect in task scratch, and
      // one copy in id order fills an exactly sized answer.
      std::vector<LocationRecord>& hits = scratch.hits;
      hits.clear();
      resolver_.intersecting(q.rect, scratch.regions);
      for (const RegionId id : scratch.regions) {
        const LocationStore* st = snapshot.store(id);
        if (st == nullptr || st->empty()) continue;
        ++c.regions_scanned;
        st->range_into(q.rect, hits);
      }
      const std::vector<std::uint64_t>& order =
          order_by_user(hits, scratch.keys, scratch.spare_keys);
      out.records.reserve(hits.size());
      for (const std::uint64_t key : order) {
        out.records.push_back(hits[static_cast<std::uint32_t>(key)]);
      }
      c.records_returned += out.records.size();
      return;
    }
    case Query::Kind::kNearest: {
      ++c.nearests;
      const Point p = q.point;
      if (q.k == 0 || !finite(p)) return;
      // Exact kNN over expanding region rings, merged in one bounded heap
      // in task scratch: each store probe starts from the k-th best the
      // earlier probes found.  `ring_floor` lower-bounds every unvisited
      // region — including the ring about to be enumerated — so refusing
      // the ring once the floor passes the k-th best cannot miss a closer
      // record; a region whose own rect distance does is skipped but the
      // ring finishes — a later region in the SAME ring can still hold a
      // closer record.
      NearestSet& best = scratch.nearest;
      best.reset(q.k);
      resolver_.each_by_distance(
          p, scratch.near,
          [&](double ring_floor) { return ring_floor <= best.reach(); },
          [&](RegionId id, double dist, double) {
            if (dist > best.reach()) return true;
            const LocationStore* st = snapshot.store(id);
            if (st == nullptr || st->empty()) return true;
            ++c.regions_scanned;
            st->k_nearest_into(p, best);
            return true;
          });
      best.take_sorted(out.records);
      c.records_returned += out.records.size();
      return;
    }
  }
}

}  // namespace geogrid::mobility
