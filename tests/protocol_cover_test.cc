// Protocol mode under the one cover rule: a publish notifies exactly the
// subscriptions whose area Rect::covers its point, and a report on a shared
// region edge or corner is stored by the one region Rect::owns names.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "core/cluster.h"

namespace geogrid::core {
namespace {

class ProtocolCoverRule : public ::testing::Test {
 protected:
  ProtocolCoverRule() : cluster_(make_options()) {
    for (int i = 0; i < 12; ++i) cluster_.spawn();
    EXPECT_TRUE(cluster_.run_until_joined());
    cluster_.run_for(20);  // let neighbor gossip settle
    EXPECT_TRUE(cluster_.check_consistency().empty());
  }

  static Cluster::Options make_options() {
    Cluster::Options opt;
    opt.node.mode = GridMode::kBasic;
    opt.seed = 11;
    return opt;
  }

  const Rect& plane() const { return plane_; }

  /// Every primary region's rect, by region id.
  std::map<RegionId, Rect> primary_rects() {
    std::map<RegionId, Rect> out;
    for (const auto& node : cluster_.nodes()) {
      for (const auto& [rid, region] : node->owned()) {
        if (region.is_primary()) out[rid] = region.rect;
      }
    }
    return out;
  }

  /// The primary regions whose store holds `user`.
  std::vector<RegionId> holders(UserId user) {
    std::vector<RegionId> out;
    for (const auto& node : cluster_.nodes()) {
      for (const auto& [rid, region] : node->owned()) {
        if (region.is_primary() && region.users.locate(user)) {
          out.push_back(rid);
        }
      }
    }
    return out;
  }

  Cluster cluster_;
  Rect plane_ = make_options().node.plane;
};

TEST_F(ProtocolCoverRule, PublishesOnSubscriptionEdgesNotifyWhereCovers) {
  // A subscription inside one region, and publishes on each of its edges
  // and corners, one ulp either side, and at its center.  Each publish
  // names its index; the subscriber hears exactly those that covers().
  GeoGridNode* host = cluster_.primary_covering({20.0, 20.0});
  ASSERT_NE(host, nullptr);
  Rect region;
  for (const auto& [rid, r] : host->owned()) {
    if (r.is_primary() && r.rect.owns({20.0, 20.0}, plane())) region = r.rect;
  }
  const Rect area{region.x + region.width / 4, region.y + region.height / 4,
                  region.width / 2, region.height / 2};

  auto& subscriber = *cluster_.nodes()[1];
  std::vector<std::string> heard;
  subscriber.on_notify = [&](const net::Notify& n) {
    heard.push_back(n.payload);
  };
  subscriber.subscribe(area, "edge", 500.0);
  cluster_.run_for(5);

  std::vector<Point> points;
  const Point c = area.center();
  for (const double bx : {area.x, c.x, area.right()}) {
    for (const double by : {area.y, c.y, area.top()}) {
      for (const double x : {std::nextafter(bx, -1e9), bx,
                             std::nextafter(bx, 1e9)}) {
        for (const double y : {std::nextafter(by, -1e9), by,
                               std::nextafter(by, 1e9)}) {
          points.push_back({x, y});
        }
      }
    }
  }
  auto& publisher = *cluster_.nodes()[2];
  std::vector<std::string> expect;
  for (std::size_t i = 0; i < points.size(); ++i) {
    publisher.publish(points[i], "edge", std::to_string(i));
    if (area.covers(points[i])) expect.push_back(std::to_string(i));
  }
  cluster_.run_for(10);
  std::sort(heard.begin(), heard.end());
  std::sort(expect.begin(), expect.end());
  EXPECT_EQ(heard, expect);
  EXPECT_LT(expect.size(), points.size());  // the west and south edges
}

TEST_F(ProtocolCoverRule, BoundaryReportsAreStoredByTheirOwner) {
  // Users reported at every primary region's corners and edge midpoints:
  // points on shared edges and corners and on the plane's borders.  One
  // user arrives new; another first reports from the center of a region
  // whose closed rect holds the point without owning it, then moves onto
  // it.  Each ends in exactly one primary store: the owner's.
  const std::map<RegionId, Rect> rects = primary_rects();
  std::vector<Point> points;
  for (const auto& [rid, r] : rects) {
    const Point c = r.center();
    for (const double x : {r.x, c.x, r.right()}) {
      for (const double y : {r.y, c.y, r.top()}) {
        if (x != c.x || y != c.y) points.push_back({x, y});
      }
    }
  }
  std::sort(points.begin(), points.end(), [](const Point& a, const Point& b) {
    return a.x != b.x ? a.x < b.x : a.y < b.y;
  });
  points.erase(std::unique(points.begin(), points.end()), points.end());

  auto& proxy = *cluster_.nodes().front();
  std::map<std::uint32_t, RegionId> want;  // user -> owning region
  std::uint32_t next_user = 1;
  std::size_t movers = 0;
  for (const Point& p : points) {
    RegionId owner = kInvalidRegion;
    const Rect* wrong_side = nullptr;
    for (const auto& [rid, r] : rects) {
      if (r.owns(p, plane())) {
        EXPECT_FALSE(owner.valid()) << "two owners of " << p;
        owner = rid;
      } else if (r.distance_to(p) == 0.0) {
        wrong_side = &r;
      }
    }
    ASSERT_TRUE(owner.valid()) << p;
    const UserId fresh{next_user++};
    proxy.submit_location_update(fresh, p, 1);
    want[fresh.value] = owner;
    if (wrong_side != nullptr) {
      const UserId mover{next_user++};
      proxy.submit_location_update(mover, wrong_side->center(), 1);
      cluster_.run_for(1);
      proxy.submit_location_update(mover, p, 2, wrong_side->center());
      want[mover.value] = owner;
      ++movers;
    }
  }
  cluster_.run_for(10);
  ASSERT_EQ(primary_rects(), rects);  // nothing split or merged meanwhile
  EXPECT_GT(movers, points.size() / 2);
  for (const auto& [user, owner] : want) {
    EXPECT_EQ(holders(UserId{user}), std::vector{owner}) << "user " << user;
  }
}

}  // namespace
}  // namespace geogrid::core
