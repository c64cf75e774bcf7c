// Pub/sub: SubscriptionIndex correctness against brute force, notification
// event semantics per subscription kind, and the determinism contract —
// byte-identical notification streams across shard and thread counts, and
// incremental (delta) drains agreeing with the full-rescan path exactly.
#include "pubsub/notification_engine.h"
#include "pubsub/subscription_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "common/simd.h"
#include "mobility/motion.h"
#include "mobility/query_engine.h"
#include "mobility/sharded_directory.h"
#include "overlay/partition.h"
#include "partition_fixture.h"
#include "wire_digest.h"

namespace geogrid::pubsub {
namespace {

using mobility::LocationRecord;
using mobility::ShardedDirectory;

using testutil::kPlane;
using testutil::QuadrantFixture;

net::Subscribe sub_msg(std::uint64_t id, const Rect& area,
                       const char* filter = "") {
  net::Subscribe s;
  s.sub_id = id;
  s.subscriber.id = NodeId{static_cast<std::uint32_t>(id % 97 + 1)};
  s.subscriber.coord = area.center();
  s.area = area;
  s.filter = filter;
  return s;
}

LocationRecord rec(std::uint32_t user, double x, double y,
                   std::uint64_t seq = 1) {
  return LocationRecord{UserId{user}, Point{x, y}, seq, 0.0};
}

std::vector<std::uint64_t> covering_ids(const SubscriptionIndex& idx,
                                        const Point& p) {
  std::vector<CoverMatch> matches;
  idx.covering(p, matches);
  std::vector<std::uint64_t> ids;
  ids.reserve(matches.size());
  for (const CoverMatch& m : matches) ids.push_back(m.id);
  return ids;
}

std::vector<std::byte> serialize(std::span<const Notification> batch) {
  net::Writer w;
  NotificationEngine::serialize(w, batch);
  return std::move(w).take();
}

/// Seeded motion trace chopped into per-tick batches (the sharded-directory
/// suite's helper, shared shape).
std::vector<std::vector<LocationRecord>> make_trace(std::size_t users,
                                                    int ticks,
                                                    std::uint64_t seed) {
  mobility::UserPopulation::Options opt;
  opt.max_pause = 2.0;
  mobility::UserPopulation pop(users, opt, nullptr, Rng(seed));
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

// --- SubscriptionIndex ---------------------------------------------------

TEST(SubscriptionIndex, CoveringMatchesBruteForce) {
  SubscriptionIndex idx(kPlane);
  Rng rng(404);
  std::vector<SubRecord> reference;
  for (std::uint64_t id = 1; id <= 200; ++id) {
    const double w = rng.uniform(0.25, 8.0);
    const double h = rng.uniform(0.25, 8.0);
    const double x = rng.uniform(0.0, 64.0 - w);
    const double y = rng.uniform(0.0, 64.0 - h);
    const Rect area{x, y, w, h};
    const SubKind kind = rng.chance(0.5) ? SubKind::kGeofence : SubKind::kRange;
    idx.subscribe(sub_msg(id, area), kind);
    reference.push_back(SubRecord{id, kind, area, UserId{}});
  }
  idx.refresh();
  EXPECT_GT(idx.grid_dim(), 1u);  // population large enough to tune the grid

  for (int i = 0; i < 500; ++i) {
    const Point p{rng.uniform(0.0, 64.0), rng.uniform(0.0, 64.0)};
    std::vector<std::uint64_t> expected;
    for (const auto& s : reference) {
      if (s.area.covers(p)) expected.push_back(s.id);
    }
    // reference is already in ascending-id insertion order
    EXPECT_EQ(covering_ids(idx, p), expected) << "probe " << i;
  }
}

TEST(SubscriptionIndex, CoveringIsHalfOpenOnLowEdges) {
  SubscriptionIndex idx(kPlane);
  idx.subscribe(sub_msg(1, Rect{8, 8, 8, 8}));
  // Half-open on the low edges, closed on the high edges — the region
  // algebra's Rect::covers, which LocationStore::range applies too.
  EXPECT_TRUE(covering_ids(idx, Point{16, 16}).size() == 1);
  EXPECT_TRUE(covering_ids(idx, Point{8, 12}).empty());
  EXPECT_TRUE(covering_ids(idx, Point{12, 8}).empty());
  EXPECT_TRUE(covering_ids(idx, Point{8.001, 8.001}).size() == 1);
  EXPECT_TRUE(covering_ids(idx, Point{16.001, 12}).empty());
}

TEST(SubscriptionIndex, ResubscribeReplacesAndUnsubscribeRemoves) {
  SubscriptionIndex idx(kPlane);
  idx.subscribe(sub_msg(7, Rect{0, 0, 4, 4}));
  ASSERT_EQ(idx.size(), 1u);
  EXPECT_EQ(covering_ids(idx, Point{2, 2}),
            (std::vector<std::uint64_t>{7}));

  // Resubscribing the same id moves the geometry, not adds a twin.
  idx.subscribe(sub_msg(7, Rect{30, 30, 4, 4}));
  EXPECT_EQ(idx.size(), 1u);
  EXPECT_TRUE(covering_ids(idx, Point{2, 2}).empty());
  EXPECT_EQ(covering_ids(idx, Point{32, 32}),
            (std::vector<std::uint64_t>{7}));

  EXPECT_TRUE(idx.unsubscribe(7));
  EXPECT_FALSE(idx.unsubscribe(7));  // already gone
  EXPECT_EQ(idx.size(), 0u);
  EXPECT_TRUE(covering_ids(idx, Point{32, 32}).empty());
}

TEST(SubscriptionIndex, UnsubscribeSwapRemoveKeepsProbesCorrect) {
  // Removing from the middle of the dense slot array relocates the last
  // subscription; every index (id map, grid cells, friend lists) must be
  // fixed up.  Probe after each removal against brute force.
  SubscriptionIndex idx(kPlane);
  Rng rng(11);
  std::vector<SubRecord> reference;
  for (std::uint64_t id = 1; id <= 64; ++id) {
    const Rect area{rng.uniform(0, 56), rng.uniform(0, 56), 6, 6};
    idx.subscribe(sub_msg(id, area));
    reference.push_back(SubRecord{id, SubKind::kGeofence, area, UserId{}});
  }
  idx.refresh();
  std::vector<std::uint64_t> order(64);
  for (std::uint64_t i = 0; i < 64; ++i) order[i] = i + 1;
  rng.shuffle(order);
  for (const std::uint64_t victim : order) {
    ASSERT_TRUE(idx.unsubscribe(victim));
    std::erase_if(reference, [&](const auto& s) { return s.id == victim; });
    const Point p{rng.uniform(0.0, 64.0), rng.uniform(0.0, 64.0)};
    std::vector<std::uint64_t> expected;
    for (const auto& s : reference) {
      if (s.area.covers(p)) expected.push_back(s.id);
    }
    EXPECT_EQ(covering_ids(idx, p), expected);
  }
  EXPECT_EQ(idx.size(), 0u);
  EXPECT_EQ(idx.rect_count(), 0u);
}

TEST(SubscriptionIndex, FriendSubscriptionsIndexByTrackedUser) {
  SubscriptionIndex idx(kPlane);
  idx.subscribe_friend(sub_msg(5, Rect{}), UserId{42});
  idx.subscribe_friend(sub_msg(3, Rect{}), UserId{42});
  idx.subscribe_friend(sub_msg(9, Rect{}), UserId{7});
  EXPECT_EQ(idx.rect_count(), 0u);  // friends never enter the grid

  const auto* list = idx.friends_of(UserId{42});
  ASSERT_NE(list, nullptr);
  ASSERT_EQ(list->size(), 2u);
  EXPECT_EQ((*list)[0].first, 3u);  // ascending sub-id order
  EXPECT_EQ((*list)[1].first, 5u);
  EXPECT_EQ(idx.friends_of(UserId{1}), nullptr);

  EXPECT_TRUE(idx.unsubscribe(3));
  ASSERT_NE(idx.friends_of(UserId{42}), nullptr);
  EXPECT_EQ(idx.friends_of(UserId{42})->size(), 1u);
  EXPECT_TRUE(idx.unsubscribe(5));
  EXPECT_EQ(idx.friends_of(UserId{42}), nullptr);  // empty list dropped
}

TEST(SubscriptionIndex, CoverMatchTriplesCarrySlotAndKind) {
  // covering() emits (id, slot, kind) so the match loop never dereferences
  // the slot array; the triple must agree with the slot array anyway.
  SubscriptionIndex idx(kPlane);
  idx.subscribe(sub_msg(4, Rect{8, 8, 8, 8}), SubKind::kGeofence);
  idx.subscribe(sub_msg(2, Rect{10, 10, 8, 8}), SubKind::kRange);
  std::vector<CoverMatch> matches;
  idx.covering(Point{12, 12}, matches);
  ASSERT_EQ(matches.size(), 2u);
  EXPECT_EQ(matches[0].id, 2u);  // ascending sub-id order
  EXPECT_EQ(matches[0].kind, SubKind::kRange);
  EXPECT_EQ(matches[1].id, 4u);
  EXPECT_EQ(matches[1].kind, SubKind::kGeofence);
  for (const CoverMatch& m : matches) {
    EXPECT_EQ(idx.at(m.slot).id, m.id);
    EXPECT_EQ(idx.at(m.slot).kind, m.kind);
  }
}

TEST(SubscriptionIndex, SimdCoveringParityRandomized) {
  // The SIMD probe (SoA cell columns + filter_rects_covering_point)
  // against a brute-force scalar scan over every rect subscription:
  // random rects plus the adversarial shapes — rects degenerate to lines
  // and points (cover nothing under the half-open test), rects flush with
  // the plane edges — probed at random points and exactly on subscription
  // boundaries, across populations small enough for a 1-cell grid and
  // large enough for a tuned one.
  for (const std::size_t population : {3u, 40u, 400u}) {
    SubscriptionIndex idx(kPlane);
    Rng rng(9000 + population);
    std::vector<SubRecord> reference;
    std::uint64_t id = 0;
    const auto add = [&](const Rect& area) {
      ++id;
      const SubKind kind =
          rng.chance(0.5) ? SubKind::kGeofence : SubKind::kRange;
      idx.subscribe(sub_msg(id, area), kind);
      reference.push_back(SubRecord{id, kind, area, UserId{}});
    };
    for (std::size_t i = 0; i < population; ++i) {
      const double roll = rng.uniform();
      if (roll < 0.1) {
        // Degenerate: a vertical line, horizontal line, or point.
        const double w = rng.chance(0.5) ? 0.0 : rng.uniform(0.5, 4.0);
        const double h = w > 0.0 && rng.chance(0.5) ? 0.0
                                                    : rng.uniform(0.0, 4.0);
        add(Rect{rng.uniform(0.0, 60.0), rng.uniform(0.0, 60.0), w,
                 rng.chance(0.3) ? 0.0 : h});
      } else if (roll < 0.25) {
        // Flush with a plane edge (or spanning the full plane).
        if (rng.chance(0.3)) {
          add(Rect{0, 0, 64, 64});
        } else {
          const double w = rng.uniform(1.0, 8.0);
          const double h = rng.uniform(1.0, 8.0);
          add(rng.chance(0.5) ? Rect{0.0, rng.uniform(0.0, 64.0 - h), w, h}
                              : Rect{64.0 - w, rng.uniform(0.0, 64.0 - h),
                                     w, h});
        }
      } else {
        const double w = rng.uniform(0.25, 10.0);
        const double h = rng.uniform(0.25, 10.0);
        add(Rect{rng.uniform(0.0, 64.0 - w), rng.uniform(0.0, 64.0 - h), w,
                 h});
      }
    }
    idx.refresh();
    ASSERT_TRUE(idx.validate());

    std::vector<Point> probes;
    for (int i = 0; i < 300; ++i) {
      probes.push_back(Point{rng.uniform(0.0, 64.0), rng.uniform(0.0, 64.0)});
    }
    // Half-open boundary hits: probe exactly on corners and edge midpoints
    // of sampled subscription rects (west/south must exclude, east/north
    // must include — brute force is the oracle either way).
    for (int i = 0; i < 60; ++i) {
      const Rect& r = reference[rng.uniform_index(reference.size())].area;
      probes.push_back(Point{r.x, r.y});
      probes.push_back(Point{r.right(), r.top()});
      probes.push_back(Point{r.x, r.top()});
      probes.push_back(Point{r.right(), r.y});
      probes.push_back(Point{r.x + r.width / 2.0, r.y});
      probes.push_back(Point{r.x, r.y + r.height / 2.0});
      probes.push_back(Point{r.x + r.width / 2.0, r.top()});
      probes.push_back(Point{r.right(), r.y + r.height / 2.0});
    }
    for (std::size_t p = 0; p < probes.size(); ++p) {
      std::vector<std::uint64_t> expected;
      for (const SubRecord& s : reference) {
        if (s.area.covers(probes[p])) expected.push_back(s.id);
      }
      ASSERT_EQ(covering_ids(idx, probes[p]), expected)
          << "population " << population << " probe " << p << " at ("
          << probes[p].x << ", " << probes[p].y << ")";
    }
  }
}

TEST(SubscriptionIndex, SubscribeUnsubscribeResubscribeKeepsColumnsInSync) {
  // The swap-remove dance must keep the hot SoA columns, the cold
  // side-table and the friend lists exactly consistent through arbitrary
  // churn — validate() audits every covered cell after each step.
  SubscriptionIndex idx(kPlane);
  Rng rng(77);
  for (std::uint64_t id = 1; id <= 40; ++id) {
    if (id % 5 == 0) {
      idx.subscribe_friend(sub_msg(id, Rect{}, "f"),
                           UserId{static_cast<std::uint32_t>(id)});
    } else {
      idx.subscribe(sub_msg(id, Rect{rng.uniform(0, 56), rng.uniform(0, 56),
                                     4, 4},
                            "area"),
                    id % 2 == 0 ? SubKind::kRange : SubKind::kGeofence);
    }
    ASSERT_TRUE(idx.validate()) << "after subscribe " << id;
  }
  idx.refresh();
  ASSERT_TRUE(idx.validate());

  // Unsubscribe half (hitting both ends of the slot array), then
  // resubscribe the same ids with new geometry and kind.
  for (std::uint64_t id = 1; id <= 40; id += 2) {
    ASSERT_TRUE(idx.unsubscribe(id));
    ASSERT_TRUE(idx.validate()) << "after unsubscribe " << id;
  }
  for (std::uint64_t id = 1; id <= 40; id += 2) {
    idx.subscribe(sub_msg(id, Rect{rng.uniform(0, 60), rng.uniform(0, 60),
                                   2, 2},
                          "back"),
                  SubKind::kRange);
    ASSERT_TRUE(idx.validate()) << "after resubscribe " << id;
  }
  EXPECT_EQ(idx.size(), 40u);
  // Resubscribing a *resident* id replaces in place (unsubscribe+insert);
  // columns must stay in sync through the replacement too.
  idx.subscribe(sub_msg(2, Rect{1, 1, 2, 2}, "moved"), SubKind::kGeofence);
  ASSERT_TRUE(idx.validate());
  EXPECT_EQ(idx.size(), 40u);
  EXPECT_EQ(covering_ids(idx, Point{2, 2}),
            (std::vector<std::uint64_t>{2}));
  // The cold side-table moved with the hot row.
  const SubRecord* rec = idx.find(2);
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(*idx.filter_of(2), "moved");
}

TEST(SubscriptionIndex, FilterRectsCoveringPointMatchesScalar) {
  // The simd.h kernel directly, including tails shorter than a vector
  // width and boundary-exact probe coordinates.
  Rng rng(31337);
  for (const std::size_t n : {0u, 1u, 2u, 3u, 5u, 8u, 13u, 64u, 127u}) {
    std::vector<double> lo_x(n), lo_y(n), hi_x(n), hi_y(n);
    for (std::size_t i = 0; i < n; ++i) {
      lo_x[i] = rng.uniform(0.0, 32.0);
      lo_y[i] = rng.uniform(0.0, 32.0);
      // Mix in degenerate (hi == lo) columns.
      hi_x[i] = lo_x[i] + (rng.chance(0.2) ? 0.0 : rng.uniform(0.0, 32.0));
      hi_y[i] = lo_y[i] + (rng.chance(0.2) ? 0.0 : rng.uniform(0.0, 32.0));
    }
    for (int probe = 0; probe < 50; ++probe) {
      Point p{rng.uniform(0.0, 64.0), rng.uniform(0.0, 64.0)};
      if (n > 0 && probe % 3 == 0) {
        // Land exactly on someone's edges.
        const std::size_t i = rng.uniform_index(n);
        p.x = rng.chance(0.5) ? lo_x[i] : hi_x[i];
        p.y = rng.chance(0.5) ? lo_y[i] : hi_y[i];
      }
      std::vector<std::uint32_t> got(n + 1);
      got.resize(common::filter_rects_covering_point(
          lo_x.data(), lo_y.data(), hi_x.data(), hi_y.data(), n, p.x, p.y,
          got.data()));
      std::vector<std::uint32_t> want;
      for (std::size_t i = 0; i < n; ++i) {
        if (lo_x[i] < p.x && p.x <= hi_x[i] && lo_y[i] < p.y &&
            p.y <= hi_y[i]) {
          want.push_back(static_cast<std::uint32_t>(i));
        }
      }
      ASSERT_EQ(got, want) << "n=" << n << " probe=" << probe;
    }
  }
}

// --- NotificationEngine: event semantics ---------------------------------

TEST(NotificationEngine, EventSemanticsPerKind) {
  QuadrantFixture fx;
  ShardedDirectory dir(fx.partition, {.shards = 4, .track_deltas = true});
  SubscriptionIndex subs(kPlane);
  subs.subscribe(sub_msg(1, Rect{8, 8, 8, 8}, "fence"), SubKind::kGeofence);
  subs.subscribe(sub_msg(2, Rect{8, 8, 8, 8}, "track"), SubKind::kRange);
  subs.subscribe_friend(sub_msg(3, Rect{}, "friend"), UserId{7});
  NotificationEngine engine(dir, subs, {.threads = 1});

  // Epoch 1: user 7 appears inside the watched area; user 9 far away.
  dir.apply_updates(std::vector<LocationRecord>{rec(7, 12, 12, 1),
                                                rec(9, 50, 50, 1)});
  auto batch = engine.drain();
  ASSERT_EQ(batch.size(), 3u);  // first drain: everything is an enter
  EXPECT_EQ(batch[0],
            (Notification{1, UserId{7}, NotifyEvent::kEnter, Point{12, 12}}));
  EXPECT_EQ(batch[1],
            (Notification{2, UserId{7}, NotifyEvent::kEnter, Point{12, 12}}));
  EXPECT_EQ(batch[2],
            (Notification{3, UserId{7}, NotifyEvent::kEnter, Point{12, 12}}));

  // Epoch 2: user 7 moves inside the area.  The geofence stays silent, the
  // range subscription and the friend tracker report the motion.
  dir.apply_updates(std::vector<LocationRecord>{rec(7, 13, 13, 2)});
  batch = engine.drain();
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0],
            (Notification{2, UserId{7}, NotifyEvent::kMove, Point{13, 13}}));
  EXPECT_EQ(batch[1],
            (Notification{3, UserId{7}, NotifyEvent::kMove, Point{13, 13}}));

  // Epoch 3: user 7 exits the area.  Both rect kinds fire leave; the
  // friend tracker keeps following (a move, never a leave).
  dir.apply_updates(std::vector<LocationRecord>{rec(7, 40, 40, 3)});
  batch = engine.drain();
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch[0],
            (Notification{1, UserId{7}, NotifyEvent::kLeave, Point{40, 40}}));
  EXPECT_EQ(batch[1],
            (Notification{2, UserId{7}, NotifyEvent::kLeave, Point{40, 40}}));
  EXPECT_EQ(batch[2],
            (Notification{3, UserId{7}, NotifyEvent::kMove, Point{40, 40}}));

  // Epoch 4: user 7 re-reports the same position (paused user): applied by
  // the seq guard but stationary — no boundary crossed, nothing emitted.
  dir.apply_updates(std::vector<LocationRecord>{rec(7, 40, 40, 4)});
  batch = engine.drain();
  EXPECT_TRUE(batch.empty());
  EXPECT_EQ(engine.counters().stationary_skips, 1u);

  EXPECT_EQ(engine.counters().drains, 4u);
  EXPECT_EQ(engine.counters().enters, 3u);
  EXPECT_EQ(engine.counters().leaves, 2u);
  EXPECT_EQ(engine.counters().moves, 3u);
  EXPECT_EQ(engine.counters().friend_events, 3u);
  EXPECT_EQ(engine.counters().full_rescans, 0u);
  EXPECT_EQ(engine.counters().last_epoch, 4u);
}

TEST(NotificationEngine, DrainWithoutNewEpochEmitsNothing) {
  QuadrantFixture fx;
  ShardedDirectory dir(fx.partition, {.shards = 2, .track_deltas = true});
  SubscriptionIndex subs(kPlane);
  subs.subscribe(sub_msg(1, Rect{8, 8, 8, 8}));
  NotificationEngine engine(dir, subs, {.threads = 1});
  dir.apply_updates(std::vector<LocationRecord>{rec(7, 12, 12, 1)});
  EXPECT_EQ(engine.drain().size(), 1u);
  EXPECT_TRUE(engine.drain().empty());  // same epoch: nothing new
  EXPECT_TRUE(engine.drain().empty());
}

TEST(NotificationEngine, ToNotifyCarriesFilterAsTopic) {
  QuadrantFixture fx;
  ShardedDirectory dir(fx.partition, {.shards = 2, .track_deltas = true});
  SubscriptionIndex subs(kPlane);
  subs.subscribe(sub_msg(1, Rect{8, 8, 8, 8}, "parking"));
  NotificationEngine engine(dir, subs, {.threads = 1});
  dir.apply_updates(std::vector<LocationRecord>{rec(7, 12, 12, 1)});
  const auto batch = engine.drain();
  ASSERT_EQ(batch.size(), 1u);
  const net::Notify n = engine.to_notify(batch[0]);
  EXPECT_EQ(n.sub_id, 1u);
  EXPECT_EQ(n.topic, "parking");
  EXPECT_NE(n.payload.find("u7"), std::string::npos);
}

TEST(NotificationEngine, NotifyTextIsPinned) {
  // The Notify payload is "<event> u<user> @(<x>, <y>)" with each
  // coordinate printed as printf's "%.6f", cut to 95 characters.  Ingest
  // never stores a non-finite or off-plane position, but to_notify is
  // public, so every double must format without writing out of bounds.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kDenormMin = std::numeric_limits<double>::denorm_min();
  struct Row {
    NotifyEvent event;
    std::uint32_t user;
    Point position;
    const char* payload;
  };
  const Row rows[] = {
      {NotifyEvent::kEnter, 0u, {0.0, 0.0}, "enter u0 @(0.000000, 0.000000)"},
      {NotifyEvent::kLeave, 4294967295u, {64.0, 64.0},
       "leave u4294967295 @(64.000000, 64.000000)"},
      {NotifyEvent::kMove, 7u, {-0.0, 0.0}, "move u7 @(-0.000000, 0.000000)"},
      // Exact ties at the sixth decimal round to even.
      {NotifyEvent::kEnter, 1u, {0.0078125, 0.0234375},
       "enter u1 @(0.007812, 0.023438)"},
      // Decimal ties that are not binary ties round by the stored value.
      {NotifyEvent::kLeave, 2u, {0.0000005, 63.9999995},
       "leave u2 @(0.000000, 64.000000)"},
      {NotifyEvent::kMove, 3u, {12.3456785, 9.9999995},
       "move u3 @(12.345678, 9.999999)"},
      {NotifyEvent::kEnter, 4u, {1e-7, -1e-7},
       "enter u4 @(0.000000, -0.000000)"},
      {NotifyEvent::kMove, 5u, {kDenormMin, -2.2250738585072009e-308},
       "move u5 @(0.000000, -0.000000)"},
      {NotifyEvent::kEnter, 6u, {kInf, -kInf}, "enter u6 @(inf, -inf)"},
      {NotifyEvent::kLeave, 8u, {kNaN, -kNaN}, "leave u8 @(nan, -nan)"},
      // 94, 95 and 96 characters before the cut.
      {NotifyEvent::kMove, 1u, {1e66, 0.5},
       "move u1 @(99999999999999994532233386824744512570964657002124792466584"
       "1614848.000000, 0.500000)"},
      {NotifyEvent::kMove, 1u, {1e67, 0.5},
       "move u1 @(99999999999999998273677578391855983172397828755809322785771"
       "47150336.000000, 0.500000)"},
      {NotifyEvent::kMove, 1u, {1e68, 0.5},
       "move u1 @(99999999999999995280522225138166806691251291352861698530421"
       "623488512.000000, 0.500000"},
      // Far past the cap, cut inside x, inside y, and inside a negative x.
      {NotifyEvent::kMove, 9u, {1e300, 1.0},
       "move u9 @(10000000000000000525047602552044202487044685811081591549158"
       "54115511802457988908195786"},
      {NotifyEvent::kMove, 10u, {1.0, -1e300},
       "move u10 @(1.000000, -10000000000000000525047602552044202487044685811"
       "08159154915854115511802457"},
      {NotifyEvent::kLeave, 4294967295u, {-1e300, -1e300},
       "leave u4294967295 @(-1000000000000000052504760255204420248704468581"
       "1081591549158541155118024579"},
  };

  QuadrantFixture fx;
  ShardedDirectory dir(fx.partition, {.shards = 1});
  SubscriptionIndex subs(kPlane);
  const NotificationEngine engine(dir, subs, {.threads = 1});
  net::Notify msg;
  for (const Row& row : rows) {
    engine.to_notify(
        Notification{1, UserId{row.user}, row.event, row.position}, msg);
    EXPECT_EQ(msg.payload, row.payload);
    EXPECT_LE(msg.payload.size(), 95u);
  }
}

TEST(NotificationEngine, SerializedNotificationIsPinned) {
  const Notification n{0xfeedfacecafeull, UserId{42}, NotifyEvent::kMove,
                       Point{3.5, 60.25}};
  net::Writer w;
  NotificationEngine::serialize(w, {&n, 1});
  EXPECT_EQ(testutil::wire_digest(w.bytes()),
            (testutil::WireDigest{30, 0x34f0147dc16bf517ull}));
}

// --- NotificationEngine: determinism and the incremental contract --------

/// Installs a deterministic mixed-population of subscriptions.
void install_subs(SubscriptionIndex& subs, std::size_t count,
                  std::uint64_t seed) {
  Rng rng(seed);
  for (std::uint64_t id = 1; id <= count; ++id) {
    const double w = rng.uniform(0.5, 6.0);
    const double h = rng.uniform(0.5, 6.0);
    const Rect area{rng.uniform(0.0, 64.0 - w), rng.uniform(0.0, 64.0 - h),
                    w, h};
    const double roll = rng.uniform();
    if (roll < 0.4) {
      subs.subscribe(sub_msg(id, area), SubKind::kGeofence);
    } else if (roll < 0.8) {
      subs.subscribe(sub_msg(id, area), SubKind::kRange);
    } else {
      subs.subscribe_friend(
          sub_msg(id, area),
          UserId{static_cast<std::uint32_t>(rng.uniform_index(100) + 1)});
    }
  }
}

TEST(NotificationEngine, ByteIdenticalAcrossShardAndThreadCounts) {
  // The divergence-abort contract bench_notifications enforces at scale:
  // the serialized notification stream must not depend on the directory's
  // shard count or the engine's match fan-out.
  QuadrantFixture fx;
  ShardedDirectory dir_a(fx.partition, {.shards = 1, .track_deltas = true});
  ShardedDirectory dir_b(fx.partition, {.shards = 8, .track_deltas = true});
  SubscriptionIndex subs_a(kPlane);
  SubscriptionIndex subs_b(kPlane);
  install_subs(subs_a, 150, 5);
  install_subs(subs_b, 150, 5);
  NotificationEngine serial(dir_a, subs_a, {.threads = 1});
  NotificationEngine parallel(dir_b, subs_b, {.threads = 4});
  EXPECT_EQ(serial.thread_count(), 1u);
  EXPECT_EQ(parallel.thread_count(), 4u);

  std::uint64_t total = 0;
  for (const auto& batch : make_trace(100, 25, 99)) {
    dir_a.apply_updates(batch);
    dir_b.apply_updates(batch);
    const auto a = serial.drain();
    const auto b = parallel.drain();
    ASSERT_EQ(serialize(a), serialize(b));
    total += a.size();
  }
  EXPECT_GT(total, 0u);  // the trace actually produced notifications
  EXPECT_EQ(serial.counters().notifications,
            parallel.counters().notifications);
  EXPECT_EQ(serial.counters().enters, parallel.counters().enters);
  EXPECT_EQ(serial.counters().leaves, parallel.counters().leaves);
  EXPECT_EQ(serial.counters().moves, parallel.counters().moves);
}

TEST(NotificationEngine, EmptyIndexDrainsLikeANeverMatchingOne) {
  // A drain over an empty index skips locating and matching, yet still
  // moves its base epoch forward: once subscriptions arrive, it must emit,
  // epoch by epoch, what an engine that matched all along emits.  The
  // reference's one extra subscription tracks a user who never reports.
  QuadrantFixture fx;
  ShardedDirectory dir_a(fx.partition, {.shards = 2, .track_deltas = true});
  ShardedDirectory dir_b(fx.partition, {.shards = 2, .track_deltas = true});
  SubscriptionIndex subs_a(kPlane);
  SubscriptionIndex subs_b(kPlane);
  subs_b.subscribe_friend(sub_msg(1000, Rect{1, 1, 1, 1}), UserId{999999});
  NotificationEngine guarded(dir_a, subs_a, {.threads = 2});
  NotificationEngine reference(dir_b, subs_b, {.threads = 2});

  constexpr std::size_t kFirstSubscribed = 8;
  const auto trace = make_trace(100, 20, 31);
  std::uint64_t total = 0;
  for (std::size_t epoch = 0; epoch < trace.size(); ++epoch) {
    if (epoch == kFirstSubscribed) {
      install_subs(subs_a, 150, 5);
      install_subs(subs_b, 150, 5);
    }
    dir_a.apply_updates(trace[epoch]);
    dir_b.apply_updates(trace[epoch]);
    const auto got = guarded.drain();
    ASSERT_EQ(serialize(got), serialize(reference.drain())) << "epoch "
                                                            << epoch;
    if (epoch < kFirstSubscribed) {
      EXPECT_TRUE(got.empty());
    }
    total += got.size();
  }
  EXPECT_GT(total, 0u);
  EXPECT_EQ(guarded.counters().drains, reference.counters().drains);
  EXPECT_EQ(guarded.counters().delta_users, reference.counters().delta_users);
  EXPECT_EQ(guarded.counters().last_epoch, reference.counters().last_epoch);
  EXPECT_EQ(guarded.counters().full_rescans, 0u);
  // The guard ran: the empty epochs' candidates were never timed.
  EXPECT_LT(guarded.match_latency().count(),
            reference.match_latency().count());
}

TEST(NotificationEngine, IncrementalAgreesWithFullRescan) {
  // A directory without delta tracking forces the engine down the
  // full-rescan fallback every drain; the incremental (delta) path must
  // emit the exact same stream.
  QuadrantFixture fx;
  ShardedDirectory fast(fx.partition, {.shards = 4, .track_deltas = true});
  ShardedDirectory slow(fx.partition, {.shards = 4});  // no deltas
  SubscriptionIndex subs_fast(kPlane);
  SubscriptionIndex subs_slow(kPlane);
  install_subs(subs_fast, 120, 17);
  install_subs(subs_slow, 120, 17);
  NotificationEngine incremental(fast, subs_fast, {.threads = 2});
  NotificationEngine rescan(slow, subs_slow, {.threads = 2});

  // Only a small subset of the population moves (and reports) each tick,
  // so the ingest delta is a strict subset of the resident users.
  Rng rng(123);
  std::vector<std::uint64_t> seq(80, 0);
  std::size_t epochs = 0;
  for (int tick = 0; tick < 20; ++tick) {
    std::vector<LocationRecord> batch;
    for (std::uint32_t u = 0; u < 80; ++u) {
      // Everyone reports on tick 0 (initial placement), then ~20% per tick.
      if (tick > 0 && !rng.chance(0.2)) continue;
      batch.push_back(rec(u + 1, rng.uniform(0.0, 64.0),
                          rng.uniform(0.0, 64.0), ++seq[u]));
    }
    if (!batch.empty()) ++epochs;
    fast.apply_updates(batch);
    slow.apply_updates(batch);
    ASSERT_EQ(serialize(incremental.drain()), serialize(rescan.drain()));
  }
  ASSERT_GT(epochs, 1u);
  EXPECT_EQ(incremental.counters().full_rescans, 0u);
  // rescan's first drain is the bootstrap scan, not a fallback; every
  // later drain had no delta to consume.
  EXPECT_EQ(rescan.counters().full_rescans, epochs - 1);
  // The incremental engine matched far fewer candidate users per epoch
  // than the rescans (that asymmetry is the whole point).
  EXPECT_LT(incremental.counters().delta_users,
            rescan.counters().delta_users);
}

TEST(NotificationEngine, RescansWhenAnotherReaderPublishedBetweenDrains) {
  // A snapshot's delta covers only the epochs since the previous publish.
  // When another reader published after this engine's last drain, the
  // engine must detect the gap and full-rescan instead of missing events.
  QuadrantFixture fx;
  ShardedDirectory dir(fx.partition, {.shards = 2, .track_deltas = true});
  SubscriptionIndex subs(kPlane);
  subs.subscribe(sub_msg(1, Rect{8, 8, 8, 8}));
  NotificationEngine engine(dir, subs, {.threads = 1});

  dir.apply_updates(std::vector<LocationRecord>{rec(7, 40, 40, 1)});
  EXPECT_TRUE(engine.drain().empty());  // outside the fence

  // User 7 enters the fence, and a query engine publishes that epoch
  // before the notification engine drains it.
  dir.apply_updates(std::vector<LocationRecord>{rec(7, 12, 12, 2)});
  mobility::QueryEngine queries(dir, {.threads = 1});
  ASSERT_TRUE(queries.run(std::vector<mobility::Query>{
                               mobility::Query::locate(UserId{7})})[0]
                  .found);
  dir.apply_updates(std::vector<LocationRecord>{rec(8, 50, 50, 1)});
  const auto batch = engine.drain();
  ASSERT_EQ(batch.size(), 1u);  // the enter was not lost
  EXPECT_EQ(batch[0],
            (Notification{1, UserId{7}, NotifyEvent::kEnter, Point{12, 12}}));
  EXPECT_EQ(engine.counters().full_rescans, 1u);
}

TEST(NotificationEngine, RegionMigrationEmitsNoSpuriousNotifications) {
  // Adaptation moves records between stores without moving users: a merge
  // retires a region and ShardedDirectory::migrate_regions re-homes its
  // records, pushing the affected users into the next epoch delta.  The
  // engine must examine them (they are in the delta) and emit nothing —
  // their positions did not change, so no boundary was crossed.
  QuadrantFixture fx;
  ShardedDirectory dir(fx.partition, {.shards = 4, .track_deltas = true});
  SubscriptionIndex subs(kPlane);
  // Fence and range both covering the SE users who are about to migrate,
  // plus a friend tracker on one of them.
  subs.subscribe(sub_msg(1, Rect{44, 12, 12, 12}, "fence"), SubKind::kGeofence);
  subs.subscribe(sub_msg(2, Rect{44, 12, 12, 12}, "track"), SubKind::kRange);
  subs.subscribe_friend(sub_msg(3, Rect{}, "friend"), UserId{20});
  NotificationEngine engine(dir, subs, {.threads = 1});

  dir.apply_updates(std::vector<LocationRecord>{
      rec(20, 48, 16, 1), rec(21, 50, 18, 1), rec(30, 12, 12, 1)});
  EXPECT_EQ(engine.drain().size(), 5u);  // enters: 20 matches all 3, 21 both rects

  // Merge SE away and migrate; users 20 and 21 change stores, not places.
  const RegionId sw = fx.partition.locate({16, 16});
  fx.partition.merge(sw, fx.partition.locate({48, 16}));
  const auto rpt = dir.migrate_regions();
  EXPECT_EQ(rpt.moved, 2u);
  const auto snap = dir.publish_snapshot();
  EXPECT_EQ(snap->delta_base_epoch(), engine.counters().last_epoch);
  EXPECT_EQ(std::vector<UserId>(snap->delta().begin(), snap->delta().end()),
            (std::vector<UserId>{UserId{20}, UserId{21}}));

  const auto batch = engine.drain();
  EXPECT_TRUE(batch.empty()) << "migration alone must be silent";
  EXPECT_EQ(engine.counters().stationary_skips, 2u);
  EXPECT_EQ(engine.counters().full_rescans, 0u);  // delta path, not rescan

  // The engine keeps working normally across the adaptation: real motion
  // by a migrated user still notifies.
  dir.apply_updates(std::vector<LocationRecord>{rec(20, 30, 30, 2)});
  const auto after = engine.drain();
  ASSERT_EQ(after.size(), 3u);  // leave fence, leave range, friend move
  EXPECT_EQ(after[0].event, NotifyEvent::kLeave);
  EXPECT_EQ(after[1].event, NotifyEvent::kLeave);
  EXPECT_EQ(after[2].event, NotifyEvent::kMove);
}

TEST(NotificationEngine, MigrationMixedWithMotionNotifiesOnlyTheMovers) {
  // One epoch of real movement immediately after a migration epoch: the
  // drain spans both epochs and must emit events only for users whose
  // position actually changed.
  QuadrantFixture fx;
  ShardedDirectory dir(fx.partition, {.shards = 2, .track_deltas = true});
  SubscriptionIndex subs(kPlane);
  subs.subscribe(sub_msg(1, Rect{40, 8, 20, 20}), SubKind::kRange);
  NotificationEngine engine(dir, subs, {.threads = 1});

  dir.apply_updates(std::vector<LocationRecord>{
      rec(20, 48, 16, 1), rec(21, 50, 18, 1)});
  EXPECT_EQ(engine.drain().size(), 2u);

  fx.partition.merge(fx.partition.locate({16, 16}),
                     fx.partition.locate({48, 16}));
  EXPECT_EQ(dir.migrate_regions().moved, 2u);      // epoch N: silent
  dir.apply_updates(std::vector<LocationRecord>{   // epoch N+1: one mover
      rec(21, 51, 19, 2)});

  const auto batch = engine.drain();
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0], (Notification{1, UserId{21}, NotifyEvent::kMove,
                                    Point{51, 19}}));
}

}  // namespace
}  // namespace geogrid::pubsub
