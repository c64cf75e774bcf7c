// LocationStore: seq-guarded ingestion, spatial queries, serialization.
#include "mobility/location_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/rng.h"
#include "nearest_reference.h"
#include "wire_digest.h"

namespace geogrid::mobility {
namespace {

LocationRecord rec(std::uint32_t user, double x, double y,
                   std::uint64_t seq = 1, double t = 0.0) {
  return LocationRecord{UserId{user}, Point{x, y}, seq, t};
}

TEST(LocationStore, IngestAndLocate) {
  LocationStore store;
  EXPECT_TRUE(store.empty());
  EXPECT_TRUE(store.ingest(rec(1, 10.0, 20.0, 1, 5.0)));
  ASSERT_TRUE(store.locate(UserId{1}).has_value());
  EXPECT_EQ(store.locate(UserId{1})->position, (Point{10.0, 20.0}));
  EXPECT_EQ(store.locate(UserId{1})->timestamp, 5.0);
  EXPECT_FALSE(store.locate(UserId{2}).has_value());
  EXPECT_EQ(store.size(), 1u);
}

TEST(LocationStore, StaleAndReplayedReportsAreRejected) {
  LocationStore store;
  EXPECT_TRUE(store.ingest(rec(1, 1.0, 1.0, 5)));
  EXPECT_FALSE(store.ingest(rec(1, 2.0, 2.0, 5)));  // replay of same seq
  EXPECT_FALSE(store.ingest(rec(1, 3.0, 3.0, 4)));  // reordered older report
  EXPECT_EQ(store.locate(UserId{1})->position, (Point{1.0, 1.0}));
  EXPECT_TRUE(store.ingest(rec(1, 2.0, 2.0, 6)));
  EXPECT_EQ(store.locate(UserId{1})->position, (Point{2.0, 2.0}));
  EXPECT_EQ(store.size(), 1u);  // updates never duplicate the record
}

TEST(LocationStore, UpdateMovesRecordBetweenCells) {
  LocationStore store(1.0);
  EXPECT_TRUE(store.ingest(rec(1, 0.5, 0.5, 1)));
  EXPECT_TRUE(store.ingest(rec(1, 10.5, 10.5, 2)));
  // The old cell must not still report the user.
  EXPECT_TRUE(store.range(Rect{0, 0, 2, 2}).empty());
  const auto hits = store.range(Rect{10, 10, 2, 2});
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].user, UserId{1});
}

TEST(LocationStore, EraseIfStaleRespectsNewerRecord) {
  LocationStore store;
  EXPECT_TRUE(store.ingest(rec(1, 1.0, 1.0, 10)));
  EXPECT_FALSE(store.erase_if_stale(UserId{1}, 9));  // record is newer
  EXPECT_TRUE(store.locate(UserId{1}).has_value());
  EXPECT_TRUE(store.erase_if_stale(UserId{1}, 10));  // eviction authority
  EXPECT_FALSE(store.locate(UserId{1}).has_value());
  EXPECT_FALSE(store.erase_if_stale(UserId{1}, 99));  // already gone
}

TEST(LocationStore, RangeReturnsExactlyCoveredUsers) {
  LocationStore store(1.0);
  for (std::uint32_t i = 0; i < 10; ++i) {
    EXPECT_TRUE(store.ingest(rec(i + 1, 0.5 + i, 0.5 + i)));
  }
  auto hits = store.range(Rect{2.0, 2.0, 3.0, 3.0});
  std::vector<std::uint32_t> ids;
  for (const auto& h : hits) ids.push_back(h.user.value);
  std::sort(ids.begin(), ids.end());
  // Users at (2.5,2.5), (3.5,3.5), (4.5,4.5) fall inside [2,5]x[2,5].
  EXPECT_EQ(ids, (std::vector<std::uint32_t>{3, 4, 5}));
}

/// Every record of `all` that rect.covers(), by user id.
std::vector<std::uint32_t> brute_range(const std::vector<LocationRecord>& all,
                                       const Rect& rect) {
  std::vector<std::uint32_t> ids;
  for (const LocationRecord& r : all) {
    if (rect.covers(r.position)) ids.push_back(r.user.value);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::vector<std::uint32_t> range_ids(const LocationStore& store,
                                     const Rect& rect) {
  std::vector<LocationRecord> hits;
  store.range_into(rect, hits);
  std::vector<std::uint32_t> ids;
  for (const LocationRecord& h : hits) ids.push_back(h.user.value);
  std::sort(ids.begin(), ids.end());
  return ids;
}

TEST(LocationStore, RangeMatchesBruteForceAtTheRectEdges) {
  // The accept test is Rect::covers: open on the west and south edges,
  // closed on the east and north ones.  A record sits exactly on each of
  // the four edges and one ulp either side of each, and on each corner,
  // with rect edges on cell lines (so the west and south records are
  // bucketed in the cells before the rect's), and the cell holding them
  // has more residents than the filter buffers per pass.  Both paths run:
  // the rect's 4x4 cells against a store of over a thousand cells take the
  // bucket path; the same rect against a store of a dozen cells, and a
  // rect wider than the store, take the SIMD path.
  const Rect rect{5.0, 7.0, 3.0, 3.0};
  const double mid_y = rect.y + 1.5;
  const double mid_x = rect.x + 1.5;
  const auto below = [](double v) { return std::nextafter(v, -1e9); };
  const auto above = [](double v) { return std::nextafter(v, 1e9); };
  // Each point with whether the rect covers it.
  const std::vector<std::pair<Point, bool>> edge_points = {
      {{below(rect.x), mid_y}, false},   {{rect.x, mid_y}, false},
      {{above(rect.x), mid_y}, true},    {{below(rect.right()), mid_y}, true},
      {{rect.right(), mid_y}, true},     {{above(rect.right()), mid_y}, false},
      {{mid_x, below(rect.y)}, false},   {{mid_x, rect.y}, false},
      {{mid_x, above(rect.y)}, true},    {{mid_x, below(rect.top())}, true},
      {{mid_x, rect.top()}, true},       {{mid_x, above(rect.top())}, false},
      {{rect.x, rect.y}, false},         {{rect.x, rect.top()}, false},
      {{rect.right(), rect.y}, false},   {{rect.right(), rect.top()}, true}};
  std::vector<LocationRecord> all;
  std::uint32_t next = 1;
  for (const auto& [p, inside] : edge_points) {
    all.push_back(rec(next++, p.x, p.y));
  }
  Rng rng(3);
  // 1,500 residents of the cell at (5, 8), inside the rect, and 1,200 of
  // the cell at (4, 8), which also holds the records just west of it.
  for (int i = 0; i < 1500; ++i) {
    all.push_back(rec(next++, rng.uniform(5.0, 6.0), rng.uniform(8.0, 9.0)));
  }
  for (int i = 0; i < 1200; ++i) {
    all.push_back(rec(next++, rng.uniform(4.0, 5.0), rng.uniform(8.0, 9.0)));
  }
  LocationStore dense(1.0);
  LocationStore sparse(1.0);
  for (const LocationRecord& r : all) {
    EXPECT_TRUE(dense.ingest(r));
    EXPECT_TRUE(sparse.ingest(r));
  }
  // A thousand-odd cells elsewhere make the rect narrow for `dense`.
  for (int i = 0; i < 1300; ++i) {
    const auto r = rec(next++, 20.5 + static_cast<double>(i % 40),
                       20.5 + static_cast<double>(i / 40));
    all.push_back(r);
    EXPECT_TRUE(dense.ingest(r));
  }
  std::vector<LocationRecord> sparse_all(all.begin(), all.end() - 1300);

  const std::vector<std::uint32_t> want = brute_range(all, rect);
  ASSERT_EQ(brute_range(sparse_all, rect), want);
  for (std::uint32_t id = 1; id <= edge_points.size(); ++id) {
    EXPECT_EQ(std::binary_search(want.begin(), want.end(), id),
              edge_points[id - 1].second)
        << edge_points[id - 1].first;
  }
  EXPECT_EQ(range_ids(dense, rect), want);   // bucket path
  EXPECT_EQ(range_ids(sparse, rect), want);  // SIMD path
  const Rect wide{0.0, 0.0, 64.0, 64.0};
  EXPECT_EQ(range_ids(dense, wide), brute_range(all, wide));
  // The rect one ulp east and north: its edges move one ulp past the
  // records placed on them.
  const Rect nudged{std::nextafter(rect.x, 1e9), std::nextafter(rect.y, 1e9),
                    rect.width, rect.height};
  EXPECT_EQ(range_ids(dense, nudged), brute_range(all, nudged));
  EXPECT_EQ(range_ids(sparse, nudged), brute_range(sparse_all, nudged));
}

TEST(LocationStore, RangeOfHugeAndNonFiniteRects) {
  // A rect far wider than the int32 cell range must still find every
  // record (its corners saturate, not overflow, to cell coordinates), and
  // a NaN rect finds nothing.
  LocationStore store(1.0);
  for (std::uint32_t i = 0; i < 10; ++i) {
    EXPECT_TRUE(store.ingest(rec(i + 1, 0.5 + 3 * i, 60.0 - 5 * i)));
  }
  EXPECT_EQ(store.range(Rect{-1e10, -1e10, 2e10, 2e10}).size(), 10u);
  EXPECT_EQ(store.range(Rect{-1e300, 0.0, 2e300, 64.0}).size(), 10u);
  // A narrow rect past the int32 cell range on either axis takes the
  // bucket path through the saturated end cell, where its records live.
  EXPECT_TRUE(store.ingest(rec(11, 3e9 + 0.5, 0.5)));
  EXPECT_TRUE(store.ingest(rec(12, 0.5, -3e9)));
  const auto east = store.range(Rect{3e9, 0.0, 1.0, 1.0});
  ASSERT_EQ(east.size(), 1u);
  EXPECT_EQ(east[0].user, UserId{11});
  const auto south = store.range(Rect{0.0, -3e9 - 1.0, 1.0, 1.0});
  ASSERT_EQ(south.size(), 1u);
  EXPECT_EQ(south[0].user, UserId{12});
  EXPECT_TRUE(store.range(Rect{5e9, 5e9, 1.0, 1.0}).empty());
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(store.range(Rect{nan, 0.0, 64.0, 64.0}).empty());
  EXPECT_TRUE(store.range(Rect{0.0, 0.0, 64.0, nan}).empty());
  EXPECT_TRUE(store.range(Rect{nan, nan, nan, nan}).empty());
}

TEST(LocationStore, KNearestFromFarAndNonFiniteCenters) {
  // A center millions of cells from the store walks no empty coordinate
  // in between; a non-finite one finds nothing.
  LocationStore store(0.25);
  std::vector<LocationRecord> all;
  Rng rng(5);
  for (std::uint32_t i = 1; i <= 300; ++i) {
    all.push_back(rec(i, rng.uniform(0.0, 16.0), rng.uniform(0.0, 16.0)));
    EXPECT_TRUE(store.ingest(all.back()));
  }
  for (const Point& q : {Point{1e5, 1e5}, Point{-4e9, 3.0}, Point{1e300, 1e300},
                         Point{-1e308, 1e308}}) {
    for (const std::size_t k : {std::size_t{1}, std::size_t{9}, all.size()}) {
      EXPECT_EQ(store.k_nearest(q, k), testutil::brute_nearest(all, q, k))
          << q << " k " << k;
    }
  }
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_TRUE(store.k_nearest(Point{nan, nan}, 5).empty());
  EXPECT_TRUE(store.k_nearest(Point{inf, 1.0}, 5).empty());
  // A k far beyond the store reserves nothing up front.
  EXPECT_EQ(store.k_nearest(Point{8.0, 8.0}, std::size_t{1} << 62).size(),
            all.size());
}

TEST(LocationStore, KNearestOrdersByDistance) {
  LocationStore store(1.0);
  EXPECT_TRUE(store.ingest(rec(1, 1.0, 0.0)));
  EXPECT_TRUE(store.ingest(rec(2, 3.0, 0.0)));
  EXPECT_TRUE(store.ingest(rec(3, 7.0, 0.0)));
  EXPECT_TRUE(store.ingest(rec(4, 20.0, 0.0)));
  const auto nearest = store.k_nearest(Point{0.0, 0.0}, 3);
  ASSERT_EQ(nearest.size(), 3u);
  EXPECT_EQ(nearest[0].user, UserId{1});
  EXPECT_EQ(nearest[1].user, UserId{2});
  EXPECT_EQ(nearest[2].user, UserId{3});
}

TEST(LocationStore, KNearestHandlesFewerRecordsThanK) {
  LocationStore store;
  EXPECT_TRUE(store.ingest(rec(1, 5.0, 5.0)));
  EXPECT_EQ(store.k_nearest(Point{0, 0}, 10).size(), 1u);
  EXPECT_TRUE(store.k_nearest(Point{0, 0}, 0).empty());
  LocationStore empty;
  EXPECT_TRUE(empty.k_nearest(Point{0, 0}, 5).empty());
}

TEST(LocationStore, KNearestMatchesBruteForce) {
  LocationStore store(2.0);
  Rng rng(42);
  std::vector<LocationRecord> all;
  for (std::uint32_t i = 1; i <= 200; ++i) {
    const auto r = rec(i, rng.uniform(0.0, 64.0), rng.uniform(0.0, 64.0));
    all.push_back(r);
    EXPECT_TRUE(store.ingest(r));
  }
  // The store's answer must equal the first k of a full sort by distance,
  // ties broken by user id.
  const auto check = [&store, &all](const Point& q, std::size_t k) {
    auto expected = all;
    std::sort(expected.begin(), expected.end(),
              [&q](const LocationRecord& a, const LocationRecord& b) {
                const double da = distance(a.position, q);
                const double db = distance(b.position, q);
                if (da != db) return da < db;
                return a.user < b.user;
              });
    expected.resize(std::min(k, expected.size()));
    const auto got = store.k_nearest(q, k);
    ASSERT_EQ(got.size(), expected.size()) << "k " << k;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].user, expected[i].user) << "rank " << i << " k " << k;
    }
  };
  const Point inside{rng.uniform(0.0, 64.0), rng.uniform(0.0, 64.0)};
  const Point far_away{150.0, -90.0};  // dozens of empty rings out
  for (const Point& q : {inside, far_away}) {
    check(q, 17);
    check(q, all.size() + 50);  // k larger than the store
  }
  // Moves that empty every cell of the west half, so those cells leave the
  // index while the rest of the store stays put.
  for (auto& r : all) {
    if (r.position.x >= 32.0) continue;
    r.position.x += 32.0;
    ++r.seq;
    EXPECT_TRUE(store.ingest(r));
  }
  for (const Point& q : {inside, far_away, Point{8.0, 8.0}}) {
    check(q, 17);
    check(q, all.size() + 50);
  }
}

TEST(LocationStore, SerializationRoundTrips) {
  LocationStore store(0.5);
  Rng rng(7);
  for (std::uint32_t i = 1; i <= 50; ++i) {
    EXPECT_TRUE(store.ingest(rec(i, rng.uniform(0.0, 64.0),
                                 rng.uniform(0.0, 64.0), i, i * 0.25)));
  }
  net::Writer w;
  store.encode(w);
  const auto bytes = std::move(w).take();
  net::Reader r(bytes.data(), bytes.size());
  const LocationStore copy = LocationStore::decode(r);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(copy.cell_size(), 0.5);
  ASSERT_EQ(copy.size(), store.size());
  for (std::uint32_t i = 1; i <= 50; ++i) {
    const auto a = store.locate(UserId{i});
    const auto b = copy.locate(UserId{i});
    ASSERT_TRUE(b.has_value());
    EXPECT_EQ(*a, *b);
  }
  // The rebuilt spatial index answers identically.
  const Rect window{16, 16, 8, 8};
  EXPECT_EQ(store.range(window).size(), copy.range(window).size());
}

TEST(LocationStore, OneRecordImageIsPinned) {
  // The store image wraps each record in the canonical order; with one
  // record it pins the LocationRecord layout itself.
  LocationStore store(0.5);
  ASSERT_TRUE(store.ingest(
      rec(0xdeadbeef, 12.5, 33.25, 0x0102030405060708ull, 17.75)));
  net::Writer w;
  store.encode(w);
  EXPECT_EQ(testutil::wire_digest(w.bytes()),
            (testutil::WireDigest{45, 0x76748f58f5b933adull}));
}

TEST(LocationStore, EncodeIsCanonicalAcrossIngestionOrder) {
  // Two stores holding the same records must serialize byte-identically
  // no matter what order (and with what interleaved churn) the records
  // arrived — this is what makes the sharded directory's snapshots
  // shard-count independent.
  LocationStore forward(1.0);
  LocationStore shuffled(1.0);
  std::vector<LocationRecord> records;
  Rng rng(11);
  for (std::uint32_t i = 1; i <= 64; ++i) {
    records.push_back(rec(i, rng.uniform(0.0, 32.0), rng.uniform(0.0, 32.0),
                          i, i * 0.5));
  }
  for (const auto& r : records) EXPECT_TRUE(forward.ingest(r));
  // Reverse order, with an extra insert/erase churn in the middle.
  for (std::size_t i = records.size(); i-- > 0;) {
    EXPECT_TRUE(shuffled.ingest(records[i]));
    if (i == records.size() / 2) {
      EXPECT_TRUE(shuffled.ingest(rec(999, 1.0, 1.0, 1)));
      EXPECT_TRUE(shuffled.erase_if_stale(UserId{999}, 1));
    }
  }
  net::Writer wa;
  net::Writer wb;
  forward.encode(wa);
  shuffled.encode(wb);
  EXPECT_EQ(std::move(wa).take(), std::move(wb).take());
}

TEST(LocationStore, EraseIfStaleIsNoOpAgainstNewerIngest) {
  // The handoff race: an eviction for seq N arrives after the user already
  // reported seq N+1 back into this region.  The eviction must not destroy
  // the newer record.
  LocationStore store;
  EXPECT_TRUE(store.ingest(rec(1, 1.0, 1.0, 5)));
  EXPECT_TRUE(store.erase_if_stale(UserId{1}, 5));  // user left...
  EXPECT_TRUE(store.ingest(rec(1, 2.0, 2.0, 7)));   // ...and came back
  EXPECT_FALSE(store.erase_if_stale(UserId{1}, 6));  // late eviction: no-op
  ASSERT_TRUE(store.locate(UserId{1}).has_value());
  EXPECT_EQ(store.locate(UserId{1})->seq, 7u);
  EXPECT_EQ(store.locate(UserId{1})->position, (Point{2.0, 2.0}));
}

}  // namespace
}  // namespace geogrid::mobility
