#include "workload.h"

#include <algorithm>
#include <cmath>

#include "workload/query_gen.h"

namespace servebench {

namespace {

// Why each workload exists is in README.md; the numbers here are the
// whole definition of its traffic.
const Spec kSpecs[] = {
    {.kind = Kind::kReportIngest,
     .name = "report_ingest",
     .reports = 2048,
     .step_miles = 0.05,
     .updaters = 3,
     .warmup_rounds = 30,
     .rounds_per_second = 60.0},
    {.kind = Kind::kHotspotQueries,
     .name = "hotspot_queries",
     .reports = 64,
     .step_miles = 0.05,
     .update_every = 8,
     .queries = 256,
     .warmup_rounds = 40,
     .rounds_per_second = 85.0},
    {.kind = Kind::kGeofencePush,
     .name = "geofence_push",
     .subscriptions = 50'000,
     .reports = 512,
     .step_miles = 0.5,
     .warmup_rounds = 40,
     .rounds_per_second = 110.0},
};

constexpr double kUniformShare = 0.3;  ///< rest placed by hot-spot weight
constexpr double kLocateShare = 0.60;  ///< query mix; then range, then kNN
constexpr double kRangeShare = 0.30;
constexpr std::uint32_t kNearestK = 8;
constexpr double kFriendShare = 0.10;  ///< subscription mix; then range,
constexpr double kRangeSubShare = 0.45;  ///< then geofence

}  // namespace

const Spec* find_spec(std::string_view name) {
  for (const Spec& s : kSpecs) {
    if (name == s.name) return &s;
  }
  return nullptr;
}

std::vector<const Spec*> all_specs() {
  std::vector<const Spec*> out;
  for (const Spec& s : kSpecs) out.push_back(&s);
  return out;
}

Generator::Generator(const Spec& spec, std::uint64_t seed,
                     core::GridSimulation& sim)
    : spec_(spec), seed_(seed), sim_(sim), plane_(sim.partition().plane()),
      rng_(seed * 131 + 3) {
  initial_.resize(kUsers);
  positions_.resize(kUsers);
  seqs_.assign(kUsers, 1);
  for (std::size_t i = 0; i < kUsers; ++i) {
    positions_[i] = rng_.chance(kUniformShare)
                        ? Point{rng_.uniform(plane_.x, plane_.right()),
                                rng_.uniform(plane_.y, plane_.top())}
                        : sim.field().sample_weighted_point(rng_);
    initial_[i] = {UserId{static_cast<std::uint32_t>(i + 1)}, positions_[i],
                   1, 0.0};
  }
}

double Generator::cell_size() const noexcept {
  return std::clamp(
      std::sqrt(4096.0 * 16.0 / static_cast<double>(kUsers)), 0.25, 2.0);
}

std::vector<SubOrder> Generator::subscriptions() const {
  std::vector<SubOrder> out;
  if (spec_.subscriptions == 0) return out;
  // bench_serve's areas: the generator's subscription radii shrunk with
  // 1/sqrt(S), so per-report fan-out stays constant as S grows.
  workload::QueryGenerator::Options gopt =
      workload::QueryGenerator::Options::presence_tracking();
  const double scale = std::min(
      1.0, std::sqrt(10'000.0 / static_cast<double>(spec_.subscriptions)));
  gopt.sub_min_radius_miles = 0.02 * scale;
  gopt.sub_max_radius_miles = 0.12 * scale;
  workload::QueryGenerator gen(sim_.field(), gopt, Rng(seed_ + 17));
  Rng roll((seed_ + 17) ^ 0x5eed50b5ULL);
  out.reserve(spec_.subscriptions);
  for (std::size_t i = 0; i < spec_.subscriptions; ++i) {
    SubOrder s;
    s.sub_id = i + 1;
    s.area = gen.next_subscription_area();
    const double r = roll.uniform();
    if (r < kFriendShare) {
      s.kind = pubsub::SubKind::kFriend;
      s.area = Rect{};
      s.friend_user =
          UserId{static_cast<std::uint32_t>(1 + roll.uniform_index(kUsers))};
    } else if (r < kFriendShare + kRangeSubShare) {
      s.kind = pubsub::SubKind::kRange;
    } else {
      s.kind = pubsub::SubKind::kGeofence;
    }
    out.push_back(s);
  }
  return out;
}

UserId Generator::random_user() {
  return UserId{static_cast<std::uint32_t>(1 + rng_.uniform_index(kUsers))};
}

Rect Generator::range_rect() {
  const Point c = sim_.field().sample_weighted_point(rng_);
  const double w = rng_.uniform(0.5, 2.0);
  const double h = rng_.uniform(0.5, 2.0);
  return Rect{std::clamp(c.x - w / 2.0, plane_.x, plane_.right() - w),
              std::clamp(c.y - h / 2.0, plane_.y, plane_.top() - h), w, h};
}

void Generator::next_round(Round& out) {
  out.number = ++rounds_;
  out.updater = static_cast<std::size_t>((rounds_ - 1) % spec_.updaters);
  out.reports.clear();
  out.queries.clear();
  out.fence = UserId{};
  out.sub_fence = UserId{};

  if ((rounds_ - 1) % spec_.update_every == 0) {
    for (std::size_t i = 0; i < spec_.reports; ++i) {
      const std::size_t u = rng_.uniform_index(kUsers);
      Point p = positions_[u];
      p.x = std::clamp(p.x + rng_.uniform(-spec_.step_miles, spec_.step_miles),
                       plane_.x + 1e-9, plane_.right());
      p.y = std::clamp(p.y + rng_.uniform(-spec_.step_miles, spec_.step_miles),
                       plane_.y + 1e-9, plane_.top());
      positions_[u] = p;
      out.reports.push_back({UserId{static_cast<std::uint32_t>(u + 1)}, p,
                             ++seqs_[u], 0.0});
    }
    out.fence = random_user();
  }
  for (std::size_t i = 0; i < spec_.queries; ++i) {
    const double roll = rng_.uniform();
    if (roll < kLocateShare) {
      out.queries.push_back(mobility::Query::locate(random_user()));
    } else if (roll < kLocateShare + kRangeShare) {
      out.queries.push_back(mobility::Query::range(range_rect()));
    } else {
      out.queries.push_back(mobility::Query::nearest(
          sim_.field().sample_weighted_point(rng_), kNearestK));
    }
  }
  if (spec_.kind == Kind::kGeofencePush) out.sub_fence = random_user();
}

}  // namespace servebench
