// QueryEngine: shard/thread-count invariance of batched reads, agreement
// with the serial per-call read path, resolver correctness, and snapshot
// isolation under concurrent ingestion.
#include "mobility/query_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <map>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "mobility/motion.h"
#include "mobility/sharded_directory.h"
#include "nearest_reference.h"
#include "overlay/region_resolver.h"
#include "partition_fixture.h"
#include "wire_digest.h"

namespace geogrid::mobility {
namespace {

using testutil::kPlane;
using testutil::make_partition;
using testutil::QuadrantFixture;

std::vector<std::vector<LocationRecord>> make_trace(std::size_t users,
                                                    int ticks,
                                                    std::uint64_t seed) {
  UserPopulation::Options opt;
  opt.max_pause = 2.0;
  UserPopulation pop(users, opt, nullptr, Rng(seed));
  std::vector<std::vector<LocationRecord>> batches;
  double now = 0.0;
  for (int step = 0; step < ticks; ++step) {
    now += 1.0;
    pop.step(1.0, now);
    std::vector<LocationRecord> batch;
    batch.reserve(users);
    for (auto& u : pop.users()) {
      batch.push_back({u.id, u.position, u.next_seq++, now});
    }
    batches.push_back(std::move(batch));
  }
  return batches;
}

/// A mixed locate/range/kNN workload over the fixture plane.
std::vector<Query> make_queries(std::size_t count, std::size_t users,
                                std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Query> qs;
  qs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    switch (i % 3) {
      case 0:
        qs.push_back(Query::locate(
            UserId{static_cast<std::uint32_t>(1 + rng.uniform_index(users))}));
        break;
      case 1: {
        const double w = rng.uniform(0.5, 8.0);
        const double h = rng.uniform(0.5, 8.0);
        const double x = rng.uniform(0.0, 64.0 - w);
        const double y = rng.uniform(0.0, 64.0 - h);
        qs.push_back(Query::range(Rect{x, y, w, h}));
        break;
      }
      default:
        qs.push_back(Query::nearest(
            Point{rng.uniform(0.0, 64.0), rng.uniform(0.0, 64.0)},
            static_cast<std::uint32_t>(1 + rng.uniform_index(16))));
    }
  }
  return qs;
}

std::vector<std::byte> result_bytes(std::span<const QueryResult> results) {
  net::Writer w;
  QueryEngine::serialize(w, results);
  return std::move(w).take();
}

std::vector<std::byte> snapshot_bytes(const DirectorySnapshot& snap) {
  net::Writer w;
  snap.serialize(w);
  return std::move(w).take();
}

TEST(QueryEngine, ResultEncodingIsPinned) {
  const LocationRecord a{UserId{7}, Point{1.5, 2.25}, 3, 4.5};
  const LocationRecord b{UserId{0xcafe}, Point{60.0, 0.125},
                         0x1122334455667788ull, 9.0};
  QueryResult hit;
  hit.found = true;
  hit.located = a;
  const QueryResult miss;
  QueryResult range;
  range.kind = Query::Kind::kRange;
  range.records = {a, b};
  QueryResult nearest;
  nearest.kind = Query::Kind::kNearest;
  nearest.records = {b, a};

  using testutil::WireDigest;
  const auto digest = [](const QueryResult& r) {
    net::Writer w;
    r.encode(w);
    return testutil::wire_digest(w.bytes());
  };
  EXPECT_EQ(digest(hit), (WireDigest{38, 0x63ac56fe9d21a1bbull}));
  EXPECT_EQ(digest(miss), (WireDigest{2, 0x08328807b4eb6fedull}));
  EXPECT_EQ(digest(range), (WireDigest{74, 0x03259e9c7566621eull}));
  EXPECT_EQ(digest(nearest), (WireDigest{74, 0x864110aca83db481ull}));
}

TEST(QueryEngine, ResultsInvariantAcrossShardAndThreadCounts) {
  // The acceptance-criteria test: the same query batch over equivalent
  // directories must serialize byte-identically for every (shard count,
  // thread count) combination.
  QuadrantFixture fx;
  const auto trace = make_trace(400, 30, 77);
  const auto queries = make_queries(600, 400, 31);

  std::vector<std::byte> reference;
  std::vector<std::byte> reference_snapshot;
  for (const std::size_t shards : {std::size_t{1}, std::size_t{8}}) {
    ShardedDirectory dir(fx.partition, {.shards = shards});
    for (const auto& batch : trace) dir.apply_updates(batch);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      QueryEngine engine(dir, {.threads = threads});
      EXPECT_EQ(engine.thread_count(), threads);
      const auto results = engine.run(queries);
      ASSERT_EQ(results.size(), queries.size());
      const auto bytes = result_bytes(results);
      const auto snap_bytes = snapshot_bytes(*dir.publish_snapshot());
      if (reference.empty()) {
        reference = bytes;
        reference_snapshot = snap_bytes;
        EXPECT_GT(engine.counters().locate_hits, 0u);
        EXPECT_GT(engine.counters().records_returned, 0u);
      } else {
        EXPECT_EQ(bytes, reference)
            << "K=" << shards << " T=" << threads << " diverged";
        EXPECT_EQ(snap_bytes, reference_snapshot);
      }
    }
  }
  ASSERT_FALSE(reference.empty());
}

TEST(QueryEngine, AgreesWithSerialPerCallReadPath) {
  // Locate answers match ShardedDirectory::locate; range answers equal the
  // serial full-region scan sorted by user id, as they come from the
  // engine; kNN matches the serial path exactly (both are exact, with the
  // same tie-break).
  QuadrantFixture fx;
  ShardedDirectory dir(fx.partition, {.shards = 4});
  for (const auto& batch : make_trace(300, 25, 5)) dir.apply_updates(batch);
  QueryEngine engine(dir, {.threads = 2});

  const auto queries = make_queries(300, 300, 77);
  const auto results = engine.run(queries);
  ASSERT_EQ(results.size(), queries.size());
  const auto sorted = [](std::vector<LocationRecord> v) {
    std::sort(v.begin(), v.end(),
              [](const LocationRecord& a, const LocationRecord& b) {
                return a.user < b.user;
              });
    return v;
  };
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const Query& q = queries[i];
    const QueryResult& r = results[i];
    ASSERT_EQ(r.kind, q.kind);
    switch (q.kind) {
      case Query::Kind::kLocate: {
        const auto expect = dir.locate(q.user);
        ASSERT_EQ(r.found, expect.has_value());
        if (expect) {
          EXPECT_EQ(r.located, *expect);
        }
        break;
      }
      case Query::Kind::kRange:
        EXPECT_EQ(r.records, sorted(dir.range(q.rect)));
        break;
      case Query::Kind::kNearest: {
        const auto expect = dir.k_nearest(q.point, q.k);
        ASSERT_EQ(r.records.size(), expect.size());
        for (std::size_t j = 0; j < expect.size(); ++j) {
          EXPECT_EQ(r.records[j], expect[j]);
        }
        break;
      }
    }
  }
}

TEST(QueryEngine, RangeOrderHoldsInEveryIdByte) {
  // Range answers are ordered by a radix pass per id byte.  These ids
  // differ in every byte, so a pass that is dropped or wrongly skipped
  // misorders some answer.  Each answer, as the engine returns it, must
  // equal a brute-force filter of the population sorted by std::sort.
  std::vector<std::uint32_t> ids = {1,       0xff,     0x100,     0xffff,
                                    0x10000, 0xffffff, 0x1000000, 0xfffffffe};
  const std::size_t specials = ids.size();
  // Random ids one to four bytes wide: most answers mix keys that share
  // their upper bytes with keys that do not.
  Rng rng(41);
  while (ids.size() < specials + 2000) {
    const std::uint32_t id = static_cast<std::uint32_t>(rng.next()) >>
                             (8 * rng.uniform_index(4));
    if (id == 0 || id == kInvalidUser.value) continue;
    if (std::find(ids.begin(), ids.end(), id) == ids.end()) ids.push_back(id);
  }
  // The specials cluster in one small rect; everyone else but one user
  // lands in [0, 56)^2, which leaves [57, 59]^2 empty and one user alone
  // at (61, 61).
  std::vector<LocationRecord> population;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    Point p{rng.uniform(0.0, 56.0), rng.uniform(0.0, 56.0)};
    if (i < specials) p = Point{20.0 + 0.1 * i, 20.5 - 0.05 * i};
    if (i + 1 == ids.size()) p = Point{61.0, 61.0};
    population.push_back({UserId{ids[i]}, p, 1, 0.0});
  }
  rng.shuffle(population);

  // Three region-spanning rects, the specials' cluster, the empty rect,
  // the lone user, then small rects anywhere.
  std::vector<Query> queries = {Query::range(Rect{0, 0, 64, 64}),
                                Query::range(Rect{16, 16, 32, 32}),
                                Query::range(Rect{28, 0, 8, 64}),
                                Query::range(Rect{19.5, 19.5, 2, 2}),
                                Query::range(Rect{57, 57, 2, 2}),
                                Query::range(Rect{60.5, 60.5, 1, 1})};
  for (int i = 0; i < 200; ++i) {
    const double w = rng.uniform(0.5, 8.0);
    const double h = rng.uniform(0.5, 8.0);
    queries.push_back(Query::range(Rect{rng.uniform(0.0, 64.0 - w),
                                        rng.uniform(0.0, 64.0 - h), w, h}));
  }
  std::vector<std::vector<LocationRecord>> expect;
  for (const Query& q : queries) {
    std::vector<LocationRecord> hits;
    for (const LocationRecord& rec : population) {
      if (q.rect.covers(rec.position)) hits.push_back(rec);
    }
    std::sort(hits.begin(), hits.end(),
              [](const LocationRecord& a, const LocationRecord& b) {
                return a.user < b.user;
              });
    expect.push_back(std::move(hits));
  }
  ASSERT_EQ(expect[0].size(), population.size());
  EXPECT_GE(expect[3].size(), specials);
  EXPECT_TRUE(expect[4].empty());
  EXPECT_EQ(expect[5].size(), 1u);

  QuadrantFixture fx;
  for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    ShardedDirectory dir(fx.partition, {.shards = shards});
    dir.apply_updates(population);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
      QueryEngine engine(dir, {.threads = threads});
      const auto results = engine.run(queries);
      for (std::size_t i = 0; i < queries.size(); ++i) {
        EXPECT_EQ(results[i].records, expect[i])
            << "K=" << shards << " T=" << threads << " query " << i;
      }
    }
  }
}

TEST(QueryEngine, RangeOrderHoldsAtEveryDigitWidth) {
  // The radix order sizes its digits to each answer's id span (highest id
  // less lowest): one digit up to 11 bits, two up to 22, three beyond.
  // Each cluster answers one span just below or just above a step, from a
  // lowest id near 0, far from it, or ending at 0xfffffffe; the rest
  // answer 2, 1 and 0 hits.  A digit one bit too narrow leaves the span's
  // top bit unsorted and misorders the cluster that has it.
  struct Cluster {
    Rect area;
    std::uint32_t lowest;
    std::uint32_t span;
    std::size_t count;  ///< ids: lowest, lowest + span and count - 2 between
  };
  constexpr std::uint32_t kTop = 0xfffffffe;
  const std::vector<Cluster> clusters = {
      {Rect{2, 2, 4, 4}, 1, (1u << 11) - 1, 300},
      {Rect{8, 2, 4, 4}, 5000, 1u << 11, 300},
      {Rect{14, 2, 4, 4}, 0x10000000, (1u << 22) - 1, 300},
      {Rect{30, 30, 4, 4}, 0x20000000, 1u << 22, 300},
      {Rect{20, 40, 4, 4}, kTop - ((1u << 22) - 1), (1u << 22) - 1, 300},
      {Rect{26, 40, 4, 4}, 0xc0000000, 1u << 11, 300},
      {Rect{30, 2, 4, 4}, 0x90000000, (1u << 11) - 1, 300},
      {Rect{40, 40, 4, 4}, 0x7fffffff, 1, 2},
      {Rect{46, 40, 4, 4}, 0x40000000, 0, 1}};
  Rng rng(1213);
  std::vector<LocationRecord> population;
  for (const Cluster& c : clusters) {
    std::vector<std::uint32_t> ids = {c.lowest, c.lowest + c.span};
    if (c.span == 0) ids.pop_back();
    while (ids.size() < c.count) {
      const auto id =
          static_cast<std::uint32_t>(c.lowest + rng.uniform_index(c.span));
      if (std::find(ids.begin(), ids.end(), id) == ids.end()) {
        ids.push_back(id);
      }
    }
    for (const std::uint32_t id : ids) {
      const Point p{rng.uniform(c.area.x + 0.01, c.area.right() - 0.01),
                    rng.uniform(c.area.y + 0.01, c.area.top() - 0.01)};
      population.push_back({UserId{id}, p, 1, 0.0});
    }
  }
  rng.shuffle(population);

  // Each cluster, four together (lowest 1, highest kTop: a 32-bit span),
  // everyone, and an empty rect.
  std::vector<Query> queries;
  for (const Cluster& c : clusters) queries.push_back(Query::range(c.area));
  queries.push_back(Query::range(Rect{2, 2, 22, 42}));
  queries.push_back(Query::range(Rect{0, 0, 64, 64}));
  queries.push_back(Query::range(Rect{56, 56, 4, 4}));
  std::vector<std::vector<LocationRecord>> expect;
  for (const Query& q : queries) {
    std::vector<LocationRecord> hits;
    for (const LocationRecord& rec : population) {
      if (q.rect.covers(rec.position)) hits.push_back(rec);
    }
    std::sort(hits.begin(), hits.end(),
              [](const LocationRecord& a, const LocationRecord& b) {
                return a.user < b.user;
              });
    expect.push_back(std::move(hits));
  }
  for (std::size_t i = 0; i < clusters.size(); ++i) {
    const Cluster& c = clusters[i];
    ASSERT_EQ(expect[i].size(), c.count) << "cluster " << i;
    EXPECT_EQ(expect[i].front().user.value, c.lowest) << "cluster " << i;
    EXPECT_EQ(expect[i].back().user.value, c.lowest + c.span)
        << "cluster " << i;
  }
  const std::vector<LocationRecord>& pair = expect[clusters.size()];
  ASSERT_FALSE(pair.empty());
  EXPECT_EQ(pair.front().user.value, 1u);
  EXPECT_EQ(pair.back().user.value, kTop);
  EXPECT_EQ(expect[clusters.size() + 1].size(), population.size());
  EXPECT_TRUE(expect.back().empty());

  QuadrantFixture fx;
  for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    ShardedDirectory dir(fx.partition, {.shards = shards});
    dir.apply_updates(population);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
      QueryEngine engine(dir, {.threads = threads});
      const auto results = engine.run(queries);
      for (std::size_t i = 0; i < queries.size(); ++i) {
        EXPECT_EQ(results[i].records, expect[i])
            << "K=" << shards << " T=" << threads << " query " << i;
      }
    }
  }
}

TEST(QueryEngine, NearestMatchesBruteForceOnEdgesTiesAndFarCenters) {
  // The pruned kNN — ring floors from p's offset in its cell, cell and
  // squared-distance rejects, the bound carried between stores, the
  // bounded walk — must answer exactly what a sort of every record by
  // (distance(), user id) gives.  Records sit on the grid lines and
  // corners of every cell size tried, several share one position, and
  // some sit at denormal-scale offsets from the origin or on the plane's
  // west and south borders.  Centers sit on cell corners, on records, on
  // the diagonal and far off the plane.
  const std::vector<double> cell_sizes = {0.25, 1.0, 0.8094};
  std::vector<Point> positions;
  Rng rng(2024);
  for (const double cs : cell_sizes) {
    for (int i = 0; i < 6; ++i) {
      const double gx = cs * static_cast<double>(3 + 7 * i);
      const double gy = cs * static_cast<double>(5 + 4 * i);
      positions.push_back(Point{gx, gy});                      // corner
      positions.push_back(Point{gx, rng.uniform(0.0, 64.0)});  // x line
      positions.push_back(Point{rng.uniform(0.0, 64.0), gy});  // y line
    }
  }
  const double tiny = std::numeric_limits<double>::denorm_min();
  for (const Point& p :
       {Point{0.0, 0.0}, Point{tiny, tiny}, Point{1e-310, 0.0},
        Point{0.0, 2.2250738585072014e-308}, Point{3e-320, 1e-300},
        Point{0.0, 1.0}, Point{2.0, 0.0}}) {
    positions.push_back(p);
  }
  for (int i = 0; i < 5; ++i) positions.push_back(Point{20.5, 20.5});
  for (int i = 0; i < 3; ++i) positions.push_back(Point{8.0, 8.0});
  // One ulp across a cell line, yet bucketed by floor(v / cs) on the
  // line's far side: r sits 0.5 from a center c in the next cell, tied
  // with a record s of larger id in c's own cell, which the probe finds
  // first.  A cell bound without bucketing slack would then prune r.
  std::vector<Point> tie_centers;
  for (const double cs : cell_sizes) {
    for (int c = 2; c < 70; ++c) {
      const double line = cs * static_cast<double>(c);
      // A multiple of 1/64, so y + 0.5 is exact and the tie is too.
      const double y =
          std::floor(cs * (static_cast<double>(c) + 0.1) * 64.0) / 64.0;
      const double west = std::nextafter(line, -1e9);
      const double east = std::nextafter(line, 1e9);
      for (const auto& [r, center] :
           {std::pair{Point{west, y}, Point{west - 0.5, y}},
            std::pair{Point{east, y}, Point{east + 0.5, y}}}) {
        const bool across = r.x == west ? std::floor(west / cs) == c
                                        : std::floor(east / cs) == c - 1;
        const Point s{center.x, center.y + 0.5};
        if (!across || distance(r, center) != distance(s, center)) continue;
        positions.push_back(r);
        positions.push_back(s);
        tie_centers.push_back(center);
      }
    }
  }
  // The same at one ulp, where the widened k-th best is far too narrow to
  // cover a bucketing error: the center sits one ulp from r on the near
  // side of the line and s one ulp beyond the center in its own cell, on
  // either axis.  Without slack on the cell edges the ring bound puts r's
  // cell two ulps away and drops r.
  std::size_t ulp_ties = 0;
  for (const double cs : cell_sizes) {
    for (int c = 2; c < 70; ++c) {
      const double line = cs * static_cast<double>(c);
      const double other = cs * (static_cast<double>(c) + 0.35);
      for (const double dir : {-1e9, 1e9}) {
        const double r = std::nextafter(line, dir);
        const double at = std::nextafter(r, dir);
        const double s = std::nextafter(at, dir);
        const double cell = std::floor(at / cs);
        if (std::floor(r / cs) == cell || std::floor(s / cs) != cell ||
            std::abs(r - at) != std::abs(s - at)) {
          continue;
        }
        for (const bool on_x : {true, false}) {
          const auto pt = [&](double v) {
            return on_x ? Point{v, other} : Point{other, v};
          };
          positions.push_back(pt(r));
          positions.push_back(pt(s));
          tie_centers.push_back(pt(at));
          ++ulp_ties;
        }
      }
    }
  }
  ASSERT_GT(ulp_ties, 0u);
  // Mirrored pairs tie exactly from any center on the diagonal.
  for (int i = 0; i < 20; ++i) {
    const double a = rng.uniform(0.0, 64.0);
    const double b = rng.uniform(0.0, 64.0);
    positions.push_back(Point{a, b});
    positions.push_back(Point{b, a});
  }
  ASSERT_FALSE(tie_centers.empty());
  while (positions.size() < 500) {
    positions.push_back(Point{rng.uniform(0.0, 64.0), rng.uniform(0.0, 64.0)});
  }
  std::vector<LocationRecord> population;
  for (std::size_t i = 0; i < positions.size(); ++i) {
    population.push_back(
        {UserId{static_cast<std::uint32_t>(i + 1)}, positions[i], 1, 0.0});
  }
  rng.shuffle(population);

  std::vector<Point> centers = {Point{0.0, 0.0},   Point{tiny, tiny},
                                Point{-tiny, 0.0}, Point{1e-310, 1e-310},
                                Point{20.5, 20.5}, Point{8.0, 8.0},
                                Point{1e5, 1e5},   Point{-3e4, -3e4},
                                Point{41.0, 41.0}, Point{-1e7, 32.0},
                                Point{32.0, -1e9}, Point{1e300, -1e300},
                                Point{-1e308, 1e308}};
  centers.insert(centers.end(), tie_centers.begin(), tie_centers.end());
  for (const double cs : cell_sizes) {
    for (int i = 0; i < 4; ++i) {
      centers.push_back(Point{cs * static_cast<double>(3 + 7 * i),
                              cs * static_cast<double>(5 + 4 * i)});
      centers.push_back(Point{cs * static_cast<double>(11 * i),
                              cs * static_cast<double>(13 * i + 1)});
    }
  }
  for (int i = 0; i < 6; ++i) centers.push_back(population[i].position);
  for (int i = 0; i < 10; ++i) {
    centers.push_back(Point{rng.uniform(-4.0, 68.0), rng.uniform(-4.0, 68.0)});
  }
  const std::size_t n = population.size();
  std::vector<Query> queries;
  std::vector<std::vector<LocationRecord>> expect;
  for (const Point& c : centers) {
    for (const std::size_t k : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                                std::size_t{6}, std::size_t{17},
                                std::size_t{60}, n - 1, n, n + 7}) {
      queries.push_back(Query::nearest(c, static_cast<std::uint32_t>(k)));
      expect.push_back(testutil::brute_nearest(population, c, k));
    }
  }

  const overlay::Partition partition = make_partition(48);
  for (const double cs : cell_sizes) {
    for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
      ShardedDirectory dir(partition, {.shards = shards, .cell_size = cs});
      dir.apply_updates(population);
      ASSERT_EQ(dir.size(), n);
      for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
        QueryEngine engine(dir, {.threads = threads});
        const auto results = engine.run(queries);
        for (std::size_t i = 0; i < queries.size(); ++i) {
          ASSERT_EQ(results[i].records, expect[i])
              << "cell " << cs << " K=" << shards << " T=" << threads
              << " center " << queries[i].point << " k " << queries[i].k;
        }
      }
    }
  }
}

TEST(QueryEngine, NonFiniteQueriesAnswerEmpty) {
  // A NaN or infinite center or rect answers with no records, before any
  // cell or resolver arithmetic sees the value.
  QuadrantFixture fx;
  ShardedDirectory dir(fx.partition, {.shards = 2});
  for (const auto& batch : make_trace(100, 2, 8)) dir.apply_updates(batch);
  QueryEngine engine(dir, {.threads = 1});
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<Query> queries = {
      Query::nearest(Point{nan, nan}, 5),  Query::nearest(Point{nan, 3.0}, 5),
      Query::nearest(Point{inf, 3.0}, 5),  Query::nearest(Point{3.0, -inf}, 5),
      Query::range(Rect{nan, 0, 64, 64}),  Query::range(Rect{0, 0, inf, 64}),
      Query::range(Rect{-inf, 0, 8, 8}),   Query::range(Rect{0, 0, 64, nan})};
  const auto results = engine.run(queries);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(results[i].kind, queries[i].kind) << "query " << i;
    EXPECT_TRUE(results[i].records.empty()) << "query " << i;
  }
  EXPECT_EQ(engine.counters().regions_scanned, 0u);
}

TEST(QueryEngine, SnapshotsAreImmutableAcrossEpochs) {
  // A held snapshot keeps answering at its epoch while the directory moves
  // on; a fresh run() observes the new epoch.
  QuadrantFixture fx;
  ShardedDirectory dir(fx.partition, {.shards = 2});
  dir.apply_updates(std::vector<LocationRecord>{
      {UserId{1}, Point{10, 10}, 1, 0.0}});
  const auto old_snap = dir.publish_snapshot();
  EXPECT_EQ(old_snap->epoch(), 1u);
  const auto old_bytes = snapshot_bytes(*old_snap);

  dir.apply_updates(std::vector<LocationRecord>{
      {UserId{1}, Point{50, 50}, 2, 1.0}});
  QueryEngine engine(dir, {.threads = 1});
  const std::vector<Query> q = {Query::locate(UserId{1})};

  const auto stale = engine.run_on(*old_snap, q);
  ASSERT_TRUE(stale[0].found);
  EXPECT_EQ(stale[0].located.seq, 1u);
  EXPECT_EQ(stale[0].located.position, (Point{10, 10}));
  EXPECT_EQ(engine.counters().last_epoch, 1u);

  const auto fresh = engine.run(q);
  ASSERT_TRUE(fresh[0].found);
  EXPECT_EQ(fresh[0].located.seq, 2u);
  EXPECT_EQ(engine.counters().last_epoch, 2u);

  // The held snapshot did not change underneath the reader.
  EXPECT_EQ(snapshot_bytes(*old_snap), old_bytes);
}

TEST(QueryEngine, CleanShardSlicesAreSharedBetweenSnapshots) {
  QuadrantFixture fx;
  ShardedDirectory dir(fx.partition, {.shards = 8});
  for (const auto& batch : make_trace(200, 10, 3)) dir.apply_updates(batch);
  dir.publish_snapshot();
  const auto first_copied = dir.counters().snapshot_slices_copied;
  EXPECT_GT(first_copied, 0u);

  // Publishing again at the same epoch is free.
  dir.publish_snapshot();
  EXPECT_EQ(dir.counters().snapshot_slices_copied, first_copied);

  // One user's update dirties at most two shards (target + eviction);
  // republish must not recopy all eight slices.
  dir.apply_updates(std::vector<LocationRecord>{
      {UserId{1}, Point{10, 10}, 1000, 99.0}});
  dir.publish_snapshot();
  EXPECT_LE(dir.counters().snapshot_slices_copied, first_copied + 2);
}

TEST(QueryEngine, ConcurrentIngestNeverTearsASnapshot) {
  // The isolation contract: while a writer applies single-epoch batches
  // (every record of batch e carries seq == e) and publishes after each, a
  // reader racing it must only ever observe snapshots where ALL users
  // carry one single seq — a mixed-seq view would mean a torn epoch.
  QuadrantFixture fx;
  ShardedDirectory dir(fx.partition, {.shards = 4});
  constexpr std::size_t kUsers = 200;
  constexpr std::uint64_t kEpochs = 120;
  constexpr std::uint64_t kMaxEpochs = 20000;

  std::vector<Query> locates;
  locates.reserve(kUsers);
  for (std::uint32_t u = 1; u <= kUsers; ++u) {
    locates.push_back(Query::locate(UserId{u}));
  }

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> violations{0};
  std::atomic<std::uint64_t> snapshots_read{0};
  std::atomic<std::uint64_t> distinct_epochs{0};

  // Epoch 1 lands before the reader starts: the resolver's first rebuild
  // (and the only one — the geometry is static here) happens writer-side
  // before any concurrent reads, per the quiesced-geometry contract.
  Rng rng(9);
  std::vector<LocationRecord> batch(kUsers);
  const auto fill_batch = [&](std::uint64_t epoch) {
    for (std::uint32_t u = 1; u <= kUsers; ++u) {
      batch[u - 1] = LocationRecord{
          UserId{u}, Point{rng.uniform(0.5, 63.5), rng.uniform(0.5, 63.5)},
          epoch, static_cast<double>(epoch)};
    }
  };
  fill_batch(1);
  dir.apply_updates(batch);
  dir.publish_snapshot();

  std::thread reader([&] {
    QueryEngine engine(dir, {.threads = 1});
    common::EpochDomain::Reader slot = dir.register_reader();
    std::uint64_t last_epoch = 0;
    while (!done.load(std::memory_order_acquire)) {
      common::EpochDomain::Guard pin(slot);
      const DirectorySnapshot* snap = dir.pinned_snapshot();
      const auto results = engine.run_on(*snap, locates);
      std::uint64_t seen_seq = 0;
      for (const auto& r : results) {
        if (!r.found) {
          ++violations;  // every epoch reports every user
          continue;
        }
        if (seen_seq == 0) seen_seq = r.located.seq;
        if (r.located.seq != seen_seq) ++violations;
      }
      // The single seq equals the snapshot's epoch by construction.
      if (seen_seq != snap->epoch()) ++violations;
      if (snap->epoch() != last_epoch) {
        last_epoch = snap->epoch();
        ++distinct_epochs;
      }
      ++snapshots_read;
    }
  });

  // Past kEpochs, keep going (bounded) until a write has recycled a body
  // with the reader still running: a reader preempted while pinned holds
  // back every snapshot retired meanwhile, so on a loaded host the first
  // kEpochs writes can all clone.
  std::uint64_t last = 1;
  while (last < kEpochs ||
         (dir.counters().snapshot_slices_recycled == 0 && last < kMaxEpochs)) {
    fill_batch(++last);
    dir.apply_updates(batch);
    dir.publish_snapshot();
  }
  done.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(violations.load(), 0u);
  EXPECT_GT(snapshots_read.load(), 0u);
  EXPECT_GE(distinct_epochs.load(), 1u);
  EXPECT_GE(last, kEpochs);
  EXPECT_EQ(dir.publish_snapshot()->epoch(), last);
  // The reader raced real body reuse, recycled and cloned.
  EXPECT_GT(dir.counters().snapshot_slices_recycled, 0u);
  EXPECT_GT(dir.counters().snapshot_slices_cloned, 0u);
}

/// Whether the closed rects share a point, spelled out independently of
/// Rect::meets.
bool closed_overlap(const Rect& a, const Rect& b) {
  return std::max(a.x, b.x) <= std::min(a.right(), b.right()) &&
         std::max(a.y, b.y) <= std::min(a.top(), b.top());
}

TEST(RegionResolver, MatchesBruteForceDiscovery) {
  // intersecting() must return exactly the regions whose closed rect meets
  // the query's closed rect in a full scan, resolve() exactly the one
  // region that owns a point, and each_by_distance() must visit every
  // region with a valid lower bound.
  QuadrantFixture fx;
  overlay::RegionResolver resolver(fx.partition);
  resolver.refresh();
  ASSERT_EQ(resolver.region_count(), fx.partition.region_count());

  Rng rng(4);
  std::vector<RegionId> got;
  const auto check_intersecting = [&got](const overlay::Partition& tiles,
                                         const overlay::RegionResolver& r,
                                         const Rect& rect) {
    std::vector<RegionId> expect;
    for (const auto& [id, region] : tiles.regions()) {
      if (closed_overlap(region.rect, rect)) expect.push_back(id);
    }
    std::sort(expect.begin(), expect.end());
    r.intersecting(rect, got);
    EXPECT_EQ(got, expect) << "rect " << rect;
  };
  for (int i = 0; i < 200; ++i) {
    const double w = rng.uniform(0.1, 30.0);
    const double h = rng.uniform(0.1, 30.0);
    const Rect rect{rng.uniform(0.0, 64.0 - w), rng.uniform(0.0, 64.0 - h), w,
                    h};
    check_intersecting(fx.partition, resolver, rect);
  }
  {
    // Rects whose edges lie on region edges and resolver grid lines, and
    // one ulp either side, over 300 regions: a region that touches the
    // rect only along an edge or at a corner is kept, one an ulp away is
    // not.
    const overlay::Partition tiles = make_partition(300);
    overlay::RegionResolver tile_resolver(tiles);
    tile_resolver.refresh();
    std::size_t dim = 1;
    while (dim * dim < tiles.region_count()) ++dim;
    const auto spec = overlay::UniformGridSpec::over(kPlane, dim);
    std::vector<double> xs;
    std::vector<double> ys;
    const auto add = [](std::vector<double>& to, double v) {
      to.insert(to.end(),
                {std::nextafter(v, -1e9), v, std::nextafter(v, 1e9)});
    };
    for (const auto& [id, region] : tiles.regions()) {
      add(xs, region.rect.x);
      add(xs, region.rect.right());
      add(ys, region.rect.y);
      add(ys, region.rect.top());
    }
    for (std::size_t j = 1; j < dim; ++j) {
      add(xs, static_cast<double>(j) * spec.cell_w);
      add(ys, static_cast<double>(j) * spec.cell_h);
    }
    for (std::vector<double>* v : {&xs, &ys}) {
      std::sort(v->begin(), v->end());
      v->erase(std::unique(v->begin(), v->end()), v->end());
    }
    // Each rect spans up to 60 consecutive edge coordinates per axis,
    // zero-width and zero-height rects included.
    const auto pick = [&rng](const std::vector<double>& v) {
      const std::size_t lo = rng.uniform_index(v.size());
      const std::size_t hi =
          std::min(v.size() - 1, lo + rng.uniform_index(60));
      return std::pair{v[lo], v[hi]};
    };
    std::size_t touching = 0;
    std::size_t ulp_apart = 0;
    for (int i = 0; i < 5000; ++i) {
      const auto [x0, x1] = pick(xs);
      const auto [y0, y1] = pick(ys);
      const Rect rect{x0, y0, x1 - x0, y1 - y0};
      check_intersecting(tiles, tile_resolver, rect);
      const Rect grown{rect.x - 1e-12, rect.y - 1e-12, rect.width + 2e-12,
                       rect.height + 2e-12};
      for (const auto& [id, region] : tiles.regions()) {
        if (closed_overlap(region.rect, rect)) {
          touching += region.rect.intersects(rect) ? 0 : 1;
        } else {
          ulp_apart += closed_overlap(region.rect, grown) ? 1 : 0;
        }
      }
    }
    // Many kept regions meet their rect only on an edge or at a corner,
    // and many left out lie a few ulps from it.
    EXPECT_GT(touching, 5000u);
    EXPECT_GT(ulp_apart, 1000u);
  }

  overlay::RegionResolver::NearScratch scratch;
  for (int i = 0; i < 100; ++i) {
    const Point p{rng.uniform(0.0, 64.0), rng.uniform(0.0, 64.0)};
    std::size_t visited = 0;
    double last_floor = 0.0;
    resolver.each_by_distance(
        p, scratch,
        [&](double floor) {
          // The per-ring bound is monotone non-decreasing.
          EXPECT_GE(floor, last_floor);
          last_floor = floor;
          return true;
        },
        [&](RegionId id, double dist, double floor) {
          // The advertised lower bound must never exceed the exact
          // distance of any region in the ring it opens.
          EXPECT_LE(floor, dist + 1e-9);
          EXPECT_DOUBLE_EQ(dist, fx.partition.region(id).rect.distance_to(p));
          ++visited;
          return true;
        });
    EXPECT_EQ(visited, fx.partition.region_count());
  }

  // resolve() agrees with the partition's locate, fast path or not.
  for (int i = 0; i < 200; ++i) {
    const Point p{rng.uniform(0.001, 63.999), rng.uniform(0.001, 63.999)};
    bool fast = false;
    const RegionId cold = resolver.resolve(p, kInvalidRegion, &fast);
    EXPECT_FALSE(fast);
    EXPECT_EQ(cold, fx.partition.locate(p));
    fast = false;
    const RegionId hinted = resolver.resolve(p, cold, &fast);
    EXPECT_TRUE(fast);
    EXPECT_EQ(hinted, cold);
  }

  // Each point of the closed plane has exactly one owner, which resolve()
  // and Partition::locate() both return, and no point off it has any.
  // Probes: each region's corners and edge midpoints, the crossings of
  // region edges that lie on resolver grid lines with the perpendicular
  // lines, and the plane's corners, each exact, at +-kGeoEps and at one
  // ulp either side of both: per axis at a corner or crossing, across the
  // edge at a midpoint.  Then off-plane and non-finite points.  Hints:
  // none, a retired id, and for a probe named by a region that region,
  // its neighbours and the region across the plane.  Over 300 regions (an
  // 18 x 18 grid) and over 16 (a 4 x 4 grid, whose lines many region
  // edges lie on).
  struct alignas(64) Tally {  // one cacheline per worker
    std::size_t checks = 0;
    std::size_t on_plane = 0;
    std::size_t mismatches = 0;
  };
  Tally total;
  const auto probe_partition = [&](std::size_t count) {
    // The newest region merged back into a neighbour leaves a retired id.
    overlay::Partition tiles = make_partition(count + 1);
    const RegionId retired{static_cast<std::uint32_t>(count)};
    for (const RegionId n : tiles.neighbors(retired)) {
      if (tiles.region(n).rect.mergeable(tiles.region(retired).rect)) {
        tiles.merge(n, retired);
        break;
      }
    }
    ASSERT_EQ(tiles.region_count(), count);
    overlay::RegionResolver tile_resolver(tiles);
    tile_resolver.refresh();
    std::size_t dim = 1;
    while (dim * dim < count) ++dim;
    const auto spec = overlay::UniformGridSpec::over(kPlane, dim);

    // A point shared by several regions is probed once, under all their
    // hints, and along each axis any of them moves it on.
    struct Probe {
      std::vector<RegionId> hints;
      bool vary_x = false;
      bool vary_y = false;
    };
    std::map<std::pair<double, double>, Probe> probes;
    const auto probe = [&probes](double x, double y, bool vary_x, bool vary_y,
                                 const std::vector<RegionId>& hints) {
      Probe& pr = probes[{x, y}];
      pr.hints.insert(pr.hints.end(), hints.begin(), hints.end());
      pr.vary_x = pr.vary_x || vary_x;
      pr.vary_y = pr.vary_y || vary_y;
    };
    for (const auto& [id, region] : tiles.regions()) {
      const Rect& r = region.rect;
      const Point c = r.center();
      std::vector<RegionId> hints = tiles.neighbors(id);
      hints.push_back(id);
      for (const double x : {r.x, r.right()}) {
        for (const double y : {r.y, r.top()}) probe(x, y, true, true, hints);
        probe(x, c.y, true, false, hints);
      }
      for (const double y : {r.y, r.top()}) probe(c.x, y, false, true, hints);
      for (std::size_t j = 1; j < dim; ++j) {
        for (std::size_t k = 1; k < dim; ++k) {
          const double gx = static_cast<double>(j) * spec.cell_w;
          const double gy = static_cast<double>(k) * spec.cell_h;
          if ((gx == r.x || gx == r.right()) && r.y < gy && gy < r.top()) {
            probe(gx, gy, true, true, hints);
          }
          if ((gy == r.y || gy == r.top()) && r.x < gx && gx < r.right()) {
            probe(gx, gy, true, true, hints);
          }
        }
      }
    }
    const RegionId any = tiles.regions().begin()->first;
    for (const double x : {0.0, 64.0}) {
      for (const double y : {0.0, 64.0}) probe(x, y, true, true, {any});
    }

    const auto check = [&](const Point& p, const std::vector<RegionId>& hints,
                           Tally& tally) {
      RegionId owner = kInvalidRegion;
      std::size_t owners = 0;
      for (const auto& [id, region] : tiles.regions()) {
        if (!region.rect.owns(p, kPlane)) continue;
        owner = id;
        ++owners;
      }
      const bool on_plane = 0.0 <= p.x && p.x <= 64.0 && 0.0 <= p.y &&
                            p.y <= 64.0;
      tally.on_plane += on_plane ? 1 : 0;
      if (owners != (on_plane ? 1u : 0u) && tally.mismatches++ < 5) {
        ADD_FAILURE() << count << " regions, point (" << p.x << ", " << p.y
                      << "): " << owners << " owners";
      }
      const auto expect = [&](RegionId hint) {
        bool fast = false;
        const RegionId answer = tile_resolver.resolve(p, hint, &fast);
        const RegionId located = tiles.locate(p, hint);
        ++tally.checks;
        if ((answer != owner || fast != (owner.valid() && hint == owner) ||
             located != owner) &&
            tally.mismatches++ < 5) {
          ADD_FAILURE() << count << " regions, point (" << p.x << ", " << p.y
                        << ") hint " << hint << ": resolve " << answer
                        << (fast ? " fast" : "") << ", locate " << located
                        << ", owner " << owner;
        }
      };
      expect(kInvalidRegion);
      expect(retired);
      for (const RegionId hint : hints) expect(hint);
    };
    const auto near = [](double v) {
      std::vector<double> out;
      for (const double b : {v - kGeoEps, v, v + kGeoEps}) {
        out.insert(out.end(),
                   {std::nextafter(b, -1e9), b, std::nextafter(b, 1e9)});
      }
      return out;
    };
    std::vector<std::pair<Point, const std::vector<RegionId>*>> points;
    for (auto& [xy, pr] : probes) {
      std::vector<RegionId>& hints = pr.hints;
      hints.push_back(tiles.locate(Point{64.0 - xy.first, 64.0 - xy.second}));
      std::sort(hints.begin(), hints.end());
      hints.erase(std::unique(hints.begin(), hints.end()), hints.end());
      const auto xs = pr.vary_x ? near(xy.first) : std::vector{xy.first};
      const auto ys = pr.vary_y ? near(xy.second) : std::vector{xy.second};
      for (const double x : xs) {
        for (const double y : ys) points.emplace_back(Point{x, y}, &hints);
      }
    }
    const std::vector<RegionId> off_plane_hints = {any};
    constexpr double kInf = std::numeric_limits<double>::infinity();
    constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
    for (const Point& p :
         {Point{-3.0, 20.0}, Point{70.0, 70.0}, Point{1e5, -1e5},
          Point{32.0, 1e9}, Point{-2e-9, 10.0}, Point{10.0, 64.0 + 2e-9},
          Point{kNaN, 5.0}, Point{5.0, kNaN}, Point{kNaN, kNaN},
          Point{kInf, 5.0}, Point{5.0, -kInf}, Point{-kInf, kInf},
          Point{kInf, kNaN}}) {
      points.emplace_back(p, &off_plane_hints);
    }
    // Greedy walks dominate the test's time (about 2 s on one thread), and
    // resolve and locate only read, so four threads share the points.
    constexpr std::size_t kWorkers = 4;
    std::vector<Tally> tallies(kWorkers);
    std::vector<std::thread> workers;
    for (std::size_t w = 0; w < kWorkers; ++w) {
      workers.emplace_back([&, w] {
        for (std::size_t i = w; i < points.size(); i += kWorkers) {
          check(points[i].first, *points[i].second, tallies[w]);
        }
      });
    }
    for (std::thread& t : workers) t.join();
    for (const Tally& t : tallies) {
      total.checks += t.checks;
      total.on_plane += t.on_plane;
      total.mismatches += t.mismatches;
    }
  };
  probe_partition(300);
  probe_partition(16);
  EXPECT_EQ(total.mismatches, 0u) << "of " << total.checks << " checks";
  EXPECT_GT(total.checks, 600'000u);
  EXPECT_GT(total.on_plane, 50'000u);
}

TEST(RegionResolver, RingFloorBoundsEveryUnvisitedRegion) {
  // Each ring's floor must lower-bound the rect distance of every region
  // not yet visited, not only those of the ring it opens.  Centers sit on
  // and one ulp either side of resolver-cell edges and corners, inside
  // cells, and off the plane, over a few hundred regions.
  const overlay::Partition partition = make_partition(300);
  overlay::RegionResolver resolver(partition);
  resolver.refresh();
  ASSERT_EQ(resolver.region_count(), 300u);
  std::size_t dim = 1;
  while (dim * dim < partition.region_count()) ++dim;
  const auto spec = overlay::UniformGridSpec::over(kPlane, dim);

  std::vector<Point> centers;
  const auto around = [&centers](double x, double y) {
    for (const double dx : {-1.0, 0.0, 1.0}) {
      for (const double dy : {-1.0, 0.0, 1.0}) {
        const double nx = dx == 0.0 ? x : std::nextafter(x, dx * 1e9);
        const double ny = dy == 0.0 ? y : std::nextafter(y, dy * 1e9);
        centers.push_back(Point{nx, ny});
      }
    }
  };
  for (std::size_t c = 0; c <= dim; c += 3) {
    const double x = spec.plane.x + static_cast<double>(c) * spec.cell_w;
    const double y = spec.plane.y + static_cast<double>(dim - c) * spec.cell_h;
    around(x, y);                                  // cell corners
    around(x, spec.plane.y + 0.37 * spec.cell_h);  // a vertical cell edge
  }
  Rng rng(12);
  for (int i = 0; i < 30; ++i) {
    centers.push_back(Point{rng.uniform(0.0, 64.0), rng.uniform(0.0, 64.0)});
  }
  for (const Point& p : {Point{-3.0, 20.0}, Point{70.0, 70.0},
                         Point{1e5, -1e5}, Point{32.0, 1e9}}) {
    centers.push_back(p);
  }

  overlay::RegionResolver::NearScratch scratch;
  std::size_t positive_first_floors = 0;
  for (const Point& p : centers) {
    std::vector<RegionId> visited;
    std::size_t rings = 0;
    resolver.each_by_distance(
        p, scratch,
        [&](double floor) {
          if (++rings == 2 && floor > 0.0) ++positive_first_floors;
          for (const auto& [id, region] : partition.regions()) {
            if (std::find(visited.begin(), visited.end(), id) !=
                visited.end()) {
              continue;
            }
            EXPECT_LE(floor, region.rect.distance_to(p))
                << "center " << p << " ring " << rings - 1 << " region "
                << id.value;
          }
          return true;
        },
        [&](RegionId id, double dist, double) {
          EXPECT_EQ(dist, partition.region(id).rect.distance_to(p));
          visited.push_back(id);
          return true;
        });
    EXPECT_EQ(visited.size(), partition.region_count()) << "center " << p;
  }
  // Centers inside a cell open ring 1 with p's offset, not with 0.
  EXPECT_GE(positive_first_floors, 20u);
}

}  // namespace
}  // namespace geogrid::mobility
