// Pub/sub notification throughput: standing subscriptions matched against
// per-epoch ingest deltas, incremental versus re-query-per-epoch.
//
// Each population point installs S standing subscriptions (geofence /
// range / friend mix from the workload generator's subscription radii)
// over a plane of N resident users, then replays a motion trace where a
// small fraction of the population moves (and reports) per epoch — the
// regime continuous location-based middleware lives in.  Three engine
// configurations drain every epoch:
//
//   serial      — NotificationEngine over a K=1 directory, 1 match thread
//                 (the determinism reference)
//   incremental — NotificationEngine over a K=8 delta-tracking directory,
//                 swept over explicit match-thread counts (1, 2, 4, 8,
//                 16): matches only the epoch's ingest delta.  The
//                 8-thread entry is the headline configuration
//                 (notifications_per_sec); the full curve and the host's
//                 core count land in the baseline JSON.
//   re-query    — an 8-thread engine over a directory without delta
//                 tracking: every drain falls back to rescanning all N
//                 resident users, the per-epoch re-query baseline
//                 (notifications_per_sec_requery)
//
// Consistency is enforced, not assumed: all three configurations must
// emit byte-identical serialized notification streams every epoch — any
// divergence across shard counts, thread counts, or the
// incremental/rescan boundary aborts the bench.
//
// Match latency percentiles come from the incremental engine's
// metrics::LatencyHistogram.  The engine times every 32nd candidate user,
// so the two steady_clock reads bracketing a measured match do not run
// once per candidate — the percentiles describe matching cost, and the
// sub-microsecond clock overhead stays out of both match_p50_us and the
// throughput denominator.  Sampling never changes the emitted bytes.
//
// Populations sweep 10k-100k users (subscriptions = users) by default;
// GEOGRID_BENCH_LARGE=1 adds the 1M/1M point, GEOGRID_BENCH_POPS picks
// the sweep explicitly, and --smoke runs the single 10k CI point.
// GEOGRID_JSON_OUT=<path> writes the machine-readable baseline
// (BENCH_notifications.json).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <memory>
#include <vector>

#include "bench_util.h"
#include "core/engine.h"
#include "metrics/latency.h"
#include "mobility/sharded_directory.h"
#include "pubsub/notification_engine.h"
#include "pubsub/subscription_index.h"
#include "workload/query_gen.h"

using namespace geogrid;

namespace {

constexpr std::size_t kNodes = 1000;
constexpr double kMoveFraction = 0.01;  ///< population reporting per epoch
constexpr double kFriendFraction = 0.10;
constexpr double kRangeFraction = 0.45;  ///< rest of the rect subs: geofence
/// Named by each point (the headline entry) and by each thread-curve entry.
constexpr char kNotificationsPerSec[] = "notifications_per_sec";

std::vector<std::byte> stream_bytes(
    std::span<const pubsub::Notification> batch) {
  net::Writer w;
  pubsub::NotificationEngine::serialize(w, batch);
  return std::move(w).take();
}

/// Installs the subscription mix: hot-spot-weighted geofence and range
/// areas from the workload generator's subscription radii, plus friend
/// trackers over uniform user ids.  Radii shrink with 1/sqrt(S) so the
/// expected subscriptions covering a point — the notification fan-out of
/// one report — stays constant as the population scales, the regime a
/// real deployment provisions for.
void install_subscriptions(pubsub::SubscriptionIndex& idx,
                           const workload::HotSpotField& field,
                           std::size_t count, std::size_t user_count,
                           std::uint64_t seed) {
  workload::QueryGenerator::Options opt =
      workload::QueryGenerator::Options::presence_tracking();
  const double scale =
      std::min(1.0, std::sqrt(10'000.0 / static_cast<double>(count)));
  opt.sub_min_radius_miles = 0.02 * scale;
  opt.sub_max_radius_miles = 0.12 * scale;
  workload::QueryGenerator gen(field, opt, Rng(seed));
  Rng rng(seed ^ 0x5eed50b5ULL);
  net::NodeInfo subscriber;
  subscriber.id = NodeId{1};
  for (std::size_t i = 0; i < count; ++i) {
    const net::Subscribe msg = gen.next_subscription(subscriber, 3600.0);
    const double roll = rng.uniform();
    if (roll < kFriendFraction) {
      idx.subscribe_friend(msg, UserId{static_cast<std::uint32_t>(
                                    1 + rng.uniform_index(user_count))});
    } else if (roll < kFriendFraction + kRangeFraction) {
      idx.subscribe(msg, pubsub::SubKind::kRange);
    } else {
      idx.subscribe(msg, pubsub::SubKind::kGeofence);
    }
    // Keep the grid pitch tracking the growing population (log-many
    // rebuilds, geometric total cost) so inserts never degenerate into
    // one giant bucket.
    idx.refresh();
  }
}

void measure(bench::Report& report, std::size_t user_count,
             std::size_t sub_count, std::size_t epochs, std::uint64_t seed) {
  core::SimulationOptions opt;
  opt.mode = core::GridMode::kDualPeer;
  opt.node_count = kNodes;
  opt.seed = seed;
  core::GridSimulation sim(opt);
  const Rect plane = sim.partition().plane();

  const double cell_size = std::clamp(
      std::sqrt(4096.0 * 16.0 / static_cast<double>(user_count)), 0.25, 2.0);
  mobility::ShardedDirectory dir_serial(
      sim.partition(),
      {.shards = 1, .cell_size = cell_size, .track_deltas = true});
  mobility::ShardedDirectory dir_inc(
      sim.partition(), {.shards = bench::kHeadline,
                        .cell_size = cell_size,
                        .track_deltas = true});
  mobility::ShardedDirectory dir_requery(
      sim.partition(), {.shards = bench::kHeadline, .cell_size = cell_size});

  // One shared subscription index: drains are sequential and matching is
  // read-only, so all the engines can probe the same frozen grid.  The
  // sweep engines share dir_inc, so none of them may trim its delta
  // history out from under the others.
  pubsub::SubscriptionIndex subs(plane);
  pubsub::NotificationEngine serial(dir_serial, subs, {.threads = 1});
  std::vector<std::unique_ptr<pubsub::NotificationEngine>> sweep;
  for (const std::size_t t : bench::kSweep) {
    sweep.push_back(std::make_unique<pubsub::NotificationEngine>(
        dir_inc, subs,
        pubsub::NotificationEngine::Options{.threads = t,
                                            .trim_consumed = false}));
  }
  pubsub::NotificationEngine requery(dir_requery, subs,
                                     {.threads = bench::kHeadline});

  // Initial placement (hot-spot attracted, like the motion workloads) and
  // the bootstrap drain — taken against an empty index so the steady-state
  // measurement below starts from "everyone resident, nobody new".
  Rng rng(seed * 131 + 3);
  std::vector<Point> positions(user_count);
  std::vector<std::uint64_t> seqs(user_count, 0);
  {
    std::vector<mobility::LocationRecord> batch(user_count);
    for (std::size_t i = 0; i < user_count; ++i) {
      positions[i] = rng.chance(0.3)
                         ? Point{rng.uniform(plane.x, plane.right()),
                                 rng.uniform(plane.y, plane.top())}
                         : sim.field().sample_weighted_point(rng);
      batch[i] = {UserId{static_cast<std::uint32_t>(i + 1)}, positions[i],
                  ++seqs[i], 0.0};
    }
    dir_serial.apply_updates(batch);
    dir_inc.apply_updates(batch);
    dir_requery.apply_updates(batch);
  }
  if (!serial.drain().empty() || !requery.drain().empty()) {
    bench::fail("bootstrap drain emitted against an empty index");
  }
  for (auto& engine : sweep) {
    if (!engine->drain().empty()) {
      bench::fail("bootstrap drain emitted against an empty index");
    }
  }

  install_subscriptions(subs, sim.field(), sub_count, user_count, seed + 17);
  subs.refresh();  // final pitch tune outside every timed drain

  // Steady state: kMoveFraction of the population moves (a local random
  // walk) and reports per epoch; everyone else is silent.  Every sweep
  // engine drains every epoch and must reproduce the serial reference
  // stream byte-for-byte.
  std::vector<double> sweep_secs(sweep.size(), 0.0);
  double req_secs = 0.0;
  std::uint64_t notifications = 0;
  std::vector<mobility::LocationRecord> batch;
  for (std::size_t epoch = 0; epoch < epochs; ++epoch) {
    batch.clear();
    for (std::size_t i = 0; i < user_count; ++i) {
      if (!rng.chance(kMoveFraction)) continue;
      Point p = positions[i];
      p.x = std::clamp(p.x + rng.uniform(-0.5, 0.5), plane.x + 1e-9,
                       plane.right());
      p.y = std::clamp(p.y + rng.uniform(-0.5, 0.5), plane.y + 1e-9,
                       plane.top());
      positions[i] = p;
      batch.push_back({UserId{static_cast<std::uint32_t>(i + 1)}, p,
                       ++seqs[i], static_cast<double>(epoch + 1)});
    }
    dir_serial.apply_updates(batch);
    dir_inc.apply_updates(batch);
    dir_requery.apply_updates(batch);

    const auto reference = serial.drain();
    const auto want = stream_bytes(reference);

    // Publish each directory's snapshot outside the timed region: the
    // first drain at a new epoch pays the publish and later drains reuse
    // it, which would otherwise bill that one-off cost to whichever sweep
    // entry happens to run first.  The curve times matching, not
    // publication.
    (void)dir_inc.publish_snapshot();
    (void)dir_requery.publish_snapshot();

    for (std::size_t s = 0; s < sweep.size(); ++s) {
      const auto t0 = std::chrono::steady_clock::now();
      const auto inc = sweep[s]->drain();
      sweep_secs[s] += bench::seconds_since(t0);
      if (stream_bytes(inc) != want) {
        bench::fail("incremental (K=8) vs serial (K=1, 1 thread)");
      }
      if (s == 0) notifications += inc.size();
    }

    const auto t_req = std::chrono::steady_clock::now();
    const auto req = requery.drain();
    req_secs += bench::seconds_since(t_req);
    if (stream_bytes(req) != want) {
      bench::fail("re-query rescan vs incremental");
    }
  }

  const pubsub::NotificationEngine* headline = nullptr;
  double headline_secs = 0.0;
  std::vector<bench::CurveEntry> curve;
  for (std::size_t s = 0; s < sweep.size(); ++s) {
    if (sweep[s]->counters().full_rescans != 0) {
      bench::fail("incremental engine fell back to a rescan");
    }
    curve.push_back(
        {sweep[s]->thread_count(),
         {{kNotificationsPerSec,
           static_cast<double>(notifications) / sweep_secs[s], 0}}});
    if (bench::kSweep[s] == bench::kHeadline) {
      headline = sweep[s].get();
      headline_secs = sweep_secs[s];
    }
  }
  report.add(
      {{"users", user_count},
       {"subs", sub_count},
       {"epochs", epochs},
       {"notifications", notifications},
       {kNotificationsPerSec,
        static_cast<double>(notifications) / headline_secs, 0},
       {"notifications_per_sec_requery",
        static_cast<double>(notifications) / req_secs, 0},
       {"speedup_incremental", req_secs / headline_secs, 2},
       {"threads", headline->thread_count()},
       {"match_p50_us", headline->match_latency().percentile_micros(50), 2},
       {"match_p99_us", headline->match_latency().percentile_micros(99), 2}},
      std::move(curve));
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  const std::size_t epochs = smoke ? 10 : 20;
  bench::Report report(
      "notifications",
      "Notifications: engine grid, subscriptions = users, movers report "
      "once per epoch",
      {{"nodes", kNodes},
       {"move_fraction", kMoveFraction, 3},
       {"host_cores", bench::host_cores()}});
  for (const std::size_t users :
       smoke ? std::vector<std::size_t>{10'000}
             : bench::pick_populations({10'000, 100'000})) {
    measure(report, users, users, epochs, 4242);
  }
  return report.finish();
}
