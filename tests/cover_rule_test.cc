// One cover rule across the engines: Rect::covers for every area test and
// Rect::owns (covers with the plane's west and south borders closed) for
// region ownership.  Range answers equal subscription matches on a rect's
// edges and corners, a point on a shared region edge or corner has one
// region whatever direction its user came from, and a report off the plane
// is dropped in constant time without touching the directory.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <limits>
#include <optional>
#include <vector>

#include "mobility/query_engine.h"
#include "mobility/sharded_directory.h"
#include "partition_fixture.h"
#include "pubsub/subscription_index.h"

namespace geogrid::mobility {
namespace {

using testutil::kPlane;
using testutil::make_partition;
using testutil::QuadrantFixture;

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

LocationRecord rec(std::uint32_t user, const Point& p, std::uint64_t seq = 1) {
  return LocationRecord{UserId{user}, p, seq, 0.0};
}

std::vector<std::byte> image(const ShardedDirectory& dir) {
  net::Writer w;
  dir.serialize(w);
  return std::move(w).take();
}

/// The region of `partition` that owns `p`, by a scan of every region.
RegionId owner_of(const overlay::Partition& partition, const Point& p) {
  RegionId owner = kInvalidRegion;
  for (const auto& [id, region] : partition.regions()) {
    if (!region.rect.owns(p, partition.plane())) continue;
    EXPECT_FALSE(owner.valid()) << "two owners of " << p;
    owner = id;
  }
  return owner;
}

/// Positions off the closed plane, within a rounding of its borders and
/// far from them, and non-finite.
const std::vector<Point>& off_plane() {
  static const std::vector<Point> points = {
      {70.0, 70.0}, {-1.0, 30.0},  {64.0 + 5e-10, 10.0}, {10.0, -1e-300},
      {kNaN, 5.0},  {5.0, kNaN},   {kNaN, kNaN},         {kInf, 5.0},
      {5.0, -kInf}, {-kInf, kInf}, {kInf, kNaN}};
  return points;
}

TEST(ShardedDirectory, OffPlaneReportsAreNotApplied) {
  QuadrantFixture fx;
  for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    ShardedDirectory dir(fx.partition, {.shards = shards});
    const LocationRecord resident = rec(1, Point{10.0, 10.0});
    dir.apply_updates(std::vector{resident});
    ASSERT_EQ(dir.size(), 1u);
    const RegionId home = dir.region_of(UserId{1});
    ASSERT_TRUE(home.valid());
    const ShardedDirectory::Counters before = dir.counters();
    const std::vector<std::byte> before_image = image(dir);

    // As one batch: the resident moving off the plane, and new users
    // appearing there.
    std::vector<LocationRecord> batch;
    std::uint64_t seq = 2;
    std::uint32_t user = 2;
    for (const Point& p : off_plane()) {
      batch.push_back(rec(1, p, seq++));
      batch.push_back(rec(user++, p));
    }
    dir.apply_updates(batch);
    // And one report at a time, through apply_update.
    for (const Point& p : off_plane()) {
      const ShardedDirectory::ApplyResult moved =
          dir.apply_update(rec(1, p, seq++));
      EXPECT_FALSE(moved.applied) << p;
      EXPECT_FALSE(moved.handoff) << p;
      EXPECT_EQ(moved.region, home) << p;
      const ShardedDirectory::ApplyResult fresh =
          dir.apply_update(rec(user++, p));
      EXPECT_FALSE(fresh.applied) << p;
      EXPECT_FALSE(fresh.region.valid()) << p;
    }

    EXPECT_EQ(dir.size(), 1u) << "K=" << shards;
    EXPECT_EQ(dir.counters().updates_applied, before.updates_applied);
    EXPECT_EQ(dir.counters().handoffs, before.handoffs);
    EXPECT_EQ(dir.counters().updates_stale, before.updates_stale);
    EXPECT_EQ(dir.region_of(UserId{1}), home);
    EXPECT_EQ(dir.locate(UserId{1}), std::optional{resident});
    EXPECT_EQ(image(dir), before_image) << "K=" << shards;
  }
}

TEST(ShardedDirectory, PlaneBorderReportsGoToTheirOwner) {
  // Users exactly on the plane's four borders and at its corners: at each
  // border region's edge ends and midpoint.  Each is applied to the one
  // region Rect::owns names, new or moving along the border.
  for (const std::size_t count : {std::size_t{4}, std::size_t{300}}) {
    const overlay::Partition partition =
        count == 4 ? std::move(QuadrantFixture{}.partition)
                   : make_partition(count);
    std::vector<Point> border;
    for (const auto& [id, region] : partition.regions()) {
      const Rect& r = region.rect;
      const Point c = r.center();
      for (const double x : {0.0, 64.0}) {
        if (r.x != x && r.right() != x) continue;
        for (const double y : {r.y, c.y, r.top()}) border.push_back({x, y});
      }
      for (const double y : {0.0, 64.0}) {
        if (r.y != y && r.top() != y) continue;
        for (const double x : {r.x, c.x, r.right()}) border.push_back({x, y});
      }
    }
    std::sort(border.begin(), border.end(), [](const Point& a, const Point& b) {
      return a.x != b.x ? a.x < b.x : a.y < b.y;
    });
    border.erase(std::unique(border.begin(), border.end()), border.end());
    ASSERT_GT(border.size(), 8u);

    for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
      ShardedDirectory dir(partition, {.shards = shards});
      std::vector<LocationRecord> arrivals;
      for (std::size_t i = 0; i < border.size(); ++i) {
        arrivals.push_back(rec(static_cast<std::uint32_t>(i + 1), border[i]));
      }
      dir.apply_updates(arrivals);
      ASSERT_EQ(dir.size(), border.size());
      // User 1 walks the whole border, one point per report.
      std::uint64_t seq = 2;
      for (const Point& p : border) {
        const auto walked = dir.apply_update(rec(1, p, seq++));
        EXPECT_TRUE(walked.applied) << p;
        EXPECT_EQ(walked.region, owner_of(partition, p)) << p;
      }
      for (std::size_t i = 1; i < border.size(); ++i) {
        const RegionId owner = owner_of(partition, border[i]);
        ASSERT_TRUE(owner.valid()) << border[i];
        EXPECT_EQ(dir.region_of(UserId{static_cast<std::uint32_t>(i + 1)}),
                  owner)
            << count << " regions, K=" << shards << ", " << border[i];
      }
    }
  }
}

TEST(ShardedDirectory, OffPlaneReportsResolveWithoutAWalk) {
  // A greedy walk over the tiling costs 0.3-0.5 ms per off-plane report at
  // 1,000 regions (optimized build, x86-64), so these 10,000 would take
  // 3-5 s; one grid cell's tests each take a few milliseconds in all.
  const overlay::Partition partition = make_partition(1000);
  ShardedDirectory dir(partition, {.shards = 1});
  dir.apply_updates(std::vector{rec(1, Point{10.0, 10.0})});
  const std::vector<Point> far = {
      {70.0, 70.0}, {-1.0, 30.0}, {32.0, 1e9}, {-5.0, -5.0}, {kInf, 5.0}};
  std::vector<LocationRecord> batch;
  for (std::uint32_t i = 0; i < 10'000; ++i) {
    const Point& p = far[i % far.size()];
    // Half are new users, half the resident moving away.
    batch.push_back(i % 2 == 0 ? rec(i + 2, p) : rec(1, p, i + 2));
  }
  const auto start = std::chrono::steady_clock::now();
  dir.apply_updates(batch);
  const std::chrono::duration<double> took =
      std::chrono::steady_clock::now() - start;
  EXPECT_LT(took.count(), 1.0);
  EXPECT_EQ(dir.size(), 1u);
  EXPECT_EQ(dir.counters().updates_applied, 1u);
}

TEST(QueryEngine, RangeAndSubscriptionsAgreeOnRectEdges) {
  // Users exactly on each edge and corner of a rect, at one ulp and at
  // kGeoEps either side: a range query returns exactly the users that a
  // subscription over the same rect matches, and both are the users
  // Rect::covers accepts.  The rects include ROADMAP's {8, 8, 8, 8}
  // against (8, 12), (12, 8) and (16, 16), rects on region edges and on
  // the plane's borders, and one with edges off every binary fraction.
  const std::vector<Rect> rects = {
      {8.0, 8.0, 8.0, 8.0},    {0.0, 0.0, 32.0, 32.0},
      {32.0, 16.0, 16.0, 16.0}, {0.0, 40.0, 64.0, 24.0},
      {5.3, 20.7, 11.1, 3.9}};
  std::vector<Point> points = {{8.0, 12.0}, {12.0, 8.0}, {16.0, 16.0}};
  for (const Rect& r : rects) {
    const Point c = r.center();
    for (const double bx : {r.x, c.x, r.right()}) {
      for (const double by : {r.y, c.y, r.top()}) {
        for (const double x :
             {bx - kGeoEps, std::nextafter(bx, -kInf), bx,
              std::nextafter(bx, kInf), bx + kGeoEps}) {
          for (const double y :
               {by - kGeoEps, std::nextafter(by, -kInf), by,
                std::nextafter(by, kInf), by + kGeoEps}) {
            points.push_back({x, y});
          }
        }
      }
    }
  }
  // Only users on the plane are stored.
  std::erase_if(points, [](const Point& p) {
    return !kPlane.owns(p, kPlane);
  });
  std::vector<LocationRecord> users;
  for (std::size_t i = 0; i < points.size(); ++i) {
    users.push_back(rec(static_cast<std::uint32_t>(i + 1), points[i]));
  }

  pubsub::SubscriptionIndex subs(kPlane);
  std::vector<Query> queries;
  for (std::size_t s = 0; s < rects.size(); ++s) {
    net::Subscribe msg;
    msg.sub_id = s + 1;
    msg.area = rects[s];
    subs.subscribe(msg);
    queries.push_back(Query::range(rects[s]));
  }
  subs.refresh();
  // matched[s]: the users subscription s + 1 covers, in id order.
  std::vector<std::vector<UserId>> matched(rects.size());
  std::vector<pubsub::CoverMatch> hits;
  for (const LocationRecord& u : users) {
    subs.covering(u.position, hits);
    for (const pubsub::CoverMatch& m : hits) {
      matched[m.id - 1].push_back(u.user);
    }
  }
  for (std::size_t s = 0; s < rects.size(); ++s) {
    std::vector<UserId> covered;
    std::size_t open_edge = 0;  // on the closed rect, but not covered
    for (const LocationRecord& u : users) {
      if (rects[s].covers(u.position)) {
        covered.push_back(u.user);
      } else {
        const Point& p = u.position;
        open_edge += rects[s].meets(Rect{p.x, p.y, 0.0, 0.0}) ? 1 : 0;
      }
    }
    EXPECT_EQ(matched[s], covered) << rects[s];
    EXPECT_GT(open_edge, 0u) << rects[s];
  }
  // ROADMAP's case: only (16, 16) lies inside {8, 8, 8, 8}.
  EXPECT_EQ(matched[0].front(), UserId{3});
  EXPECT_FALSE(rects[0].covers(points[0]));
  EXPECT_FALSE(rects[0].covers(points[1]));

  for (const std::size_t regions : {std::size_t{4}, std::size_t{48}}) {
    const overlay::Partition partition =
        regions == 4 ? std::move(QuadrantFixture{}.partition)
                     : make_partition(regions);
    for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
      ShardedDirectory dir(partition, {.shards = shards});
      dir.apply_updates(users);
      ASSERT_EQ(dir.size(), users.size());
      for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
        QueryEngine engine(dir, {.threads = threads});
        const std::vector<QueryResult> results = engine.run(queries);
        for (std::size_t s = 0; s < rects.size(); ++s) {
          std::vector<UserId> ranged;
          for (const LocationRecord& r : results[s].records) {
            ranged.push_back(r.user);
          }
          EXPECT_EQ(ranged, matched[s])
              << regions << " regions K=" << shards << " T=" << threads
              << " rect " << rects[s];
          std::vector<UserId> serial;
          for (const LocationRecord& r : dir.range(rects[s])) {
            serial.push_back(r.user);
          }
          std::sort(serial.begin(), serial.end());
          EXPECT_EQ(serial, matched[s]) << "serial range " << rects[s];
        }
      }
    }
  }
}

TEST(QueryEngine, CornerUserHasOneRegionAndOneAnswer) {
  // A user a rounding north-east of the four quadrants' shared corner
  // lies in the north-east quadrant.  It is stored there, and range
  // {0, 0, 32, 32} leaves it out, whether it arrives new, from the
  // north-east or from the south-west.
  QuadrantFixture fx;
  const Point corner{32.0 + 5e-10, 32.0 + 5e-10};
  const RegionId north_east = fx.partition.locate(Point{48.0, 48.0});
  const std::vector<Query> queries = {Query::range(Rect{0, 0, 32, 32}),
                                      Query::range(Rect{32, 32, 32, 32})};
  for (const std::optional<Point> from :
       {std::optional<Point>{}, std::optional{Point{48.0, 48.0}},
        std::optional{Point{16.0, 16.0}}}) {
    for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
      ShardedDirectory dir(fx.partition, {.shards = shards});
      if (from) dir.apply_updates(std::vector{rec(1, *from, 1)});
      dir.apply_updates(std::vector{rec(1, corner, 2)});
      EXPECT_EQ(dir.region_of(UserId{1}), north_east);
      QueryEngine engine(dir, {.threads = 1});
      const std::vector<QueryResult> results = engine.run(queries);
      EXPECT_TRUE(results[0].records.empty());
      ASSERT_EQ(results[1].records.size(), 1u);
      EXPECT_TRUE(dir.range(Rect{0, 0, 32, 32}).empty());
    }
  }
}

}  // namespace
}  // namespace geogrid::mobility
