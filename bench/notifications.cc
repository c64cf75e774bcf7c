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
// metrics::LatencyHistogram.  Timing is sampled (every Nth candidate
// user, NotificationEngine::Options::timing_sample_every), so the two
// steady_clock reads bracketing a measured match no longer run once per
// candidate — the percentiles describe matching cost, and the sub-
// microsecond clock overhead stops inflating both match_p50_us and the
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
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
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
/// Explicit match-thread counts for the scaling curve; 8 is the headline.
constexpr std::size_t kThreadSweep[] = {1, 2, 4, 8, 16};
constexpr std::size_t kHeadlineThreads = 8;

struct CurvePoint {
  std::size_t threads = 0;
  double notifications_per_sec = 0.0;
};

struct RunResult {
  std::size_t users = 0;
  std::size_t subs = 0;
  std::size_t epochs = 0;
  std::uint64_t notifications = 0;         ///< emitted over measured epochs
  std::uint64_t delta_users = 0;           ///< candidates matched (incremental)
  double notifications_per_sec = 0.0;      ///< incremental drain throughput
  double notifications_per_sec_requery = 0.0;
  double speedup_incremental = 0.0;        ///< requery time / incremental time
  std::size_t threads = 0;
  std::vector<CurvePoint> curve;           ///< the full thread sweep
  double match_p50_us = 0.0;
  double match_p99_us = 0.0;
};

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

void fail(const char* what) {
  std::fprintf(stderr, "divergence abort: %s\n", what);
  std::exit(1);
}

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

RunResult measure(std::size_t user_count, std::size_t sub_count,
                  std::size_t epochs, std::uint64_t seed) {
  core::SimulationOptions opt;
  opt.mode = core::GridMode::kDualPeer;
  opt.node_count = kNodes;
  opt.seed = seed;
  core::GridSimulation sim(opt);
  const Rect plane = sim.partition().plane();

  RunResult r;
  r.users = user_count;
  r.subs = sub_count;
  r.epochs = epochs;

  const double cell_size = std::clamp(
      std::sqrt(4096.0 * 16.0 / static_cast<double>(user_count)), 0.25, 2.0);
  mobility::ShardedDirectory dir_serial(
      sim.partition(),
      {.shards = 1, .cell_size = cell_size, .track_deltas = true});
  mobility::ShardedDirectory dir_inc(
      sim.partition(),
      {.shards = 8, .cell_size = cell_size, .track_deltas = true});
  mobility::ShardedDirectory dir_requery(
      sim.partition(), {.shards = 8, .cell_size = cell_size});

  // One shared subscription index: drains are sequential and matching is
  // read-only, so all the engines can probe the same frozen grid.  The
  // sweep engines share dir_inc, so none of them may trim its delta
  // history out from under the others.
  pubsub::SubscriptionIndex subs(plane);
  pubsub::NotificationEngine serial(dir_serial, subs, {.threads = 1});
  std::vector<std::unique_ptr<pubsub::NotificationEngine>> sweep;
  for (const std::size_t t : kThreadSweep) {
    sweep.push_back(std::make_unique<pubsub::NotificationEngine>(
        dir_inc, subs,
        pubsub::NotificationEngine::Options{.threads = t,
                                            .trim_consumed = false}));
  }
  pubsub::NotificationEngine requery(dir_requery, subs,
                                     {.threads = kHeadlineThreads});

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
    fail("bootstrap drain emitted against an empty index");
  }
  for (auto& engine : sweep) {
    if (!engine->drain().empty()) {
      fail("bootstrap drain emitted against an empty index");
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
      sweep_secs[s] += seconds_since(t0);
      if (stream_bytes(inc) != want) {
        fail("incremental (K=8) vs serial (K=1, 1 thread)");
      }
      if (s == 0) notifications += inc.size();
    }

    const auto t_req = std::chrono::steady_clock::now();
    const auto req = requery.drain();
    req_secs += seconds_since(t_req);
    if (stream_bytes(req) != want) {
      fail("re-query rescan vs incremental");
    }
  }

  r.notifications = notifications;
  double headline_secs = sweep_secs.back();
  for (std::size_t s = 0; s < sweep.size(); ++s) {
    CurvePoint pt;
    pt.threads = sweep[s]->thread_count();
    pt.notifications_per_sec =
        static_cast<double>(notifications) / sweep_secs[s];
    r.curve.push_back(pt);
    if (kThreadSweep[s] == kHeadlineThreads) {
      headline_secs = sweep_secs[s];
      r.notifications_per_sec = pt.notifications_per_sec;
      r.threads = pt.threads;
      r.delta_users = sweep[s]->counters().delta_users;
      r.match_p50_us = sweep[s]->match_latency().percentile_micros(50);
      r.match_p99_us = sweep[s]->match_latency().percentile_micros(99);
    }
    if (sweep[s]->counters().full_rescans != 0) {
      fail("incremental engine fell back to a rescan");
    }
  }
  r.notifications_per_sec_requery =
      static_cast<double>(notifications) / req_secs;
  r.speedup_incremental = req_secs / headline_secs;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  const std::size_t epochs = smoke ? 10 : 20;
  const std::vector<std::size_t> populations =
      smoke ? std::vector<std::size_t>{10'000}
            : bench::pick_populations({10'000, 100'000});
  const std::size_t host_cores =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());

  std::printf("Notifications: %zu-node engine grid, subscriptions = users, "
              "%.0f%% of the population moves per epoch, %zu epochs "
              "(host cores: %zu)\n",
              kNodes, kMoveFraction * 100.0, epochs, host_cores);
  auto csv = bench::csv_for("notifications");
  if (csv) {
    csv->header({"users", "subs", "epochs", "notifications",
                 "notifications_per_sec", "notifications_per_sec_requery",
                 "speedup_incremental", "threads", "match_p50_us",
                 "match_p99_us"});
  }

  std::vector<RunResult> results;
  std::printf("%9s %9s %14s %16s %14s %8s %8s\n", "users", "subs",
              "notifications", "incremental/sec", "requery/sec", "speedup",
              "threads");
  for (const std::size_t users : populations) {
    const RunResult r = measure(users, users, epochs, 4242);
    results.push_back(r);
    std::printf("%9zu %9zu %14llu %16.0f %14.0f %7.1fx %8zu\n", r.users,
                r.subs, static_cast<unsigned long long>(r.notifications),
                r.notifications_per_sec, r.notifications_per_sec_requery,
                r.speedup_incremental, r.threads);
    std::printf("          match p50/p99 %.2f/%.2fus (sampled) over %llu "
                "candidate users\n",
                r.match_p50_us, r.match_p99_us,
                static_cast<unsigned long long>(r.delta_users));
    for (const CurvePoint& pt : r.curve) {
      std::printf("          threads=%-3zu %16.0f notifications/sec\n",
                  pt.threads, pt.notifications_per_sec);
    }
    if (csv) {
      csv->row(r.users, r.subs, r.epochs, r.notifications,
               r.notifications_per_sec, r.notifications_per_sec_requery,
               r.speedup_incremental, r.threads, r.match_p50_us,
               r.match_p99_us);
    }
  }
  std::printf("divergence aborts: 0 (all streams byte-identical across "
              "shard/thread counts and the re-query baseline)\n");

  if (const char* path = std::getenv("GEOGRID_JSON_OUT")) {
    std::FILE* f = std::fopen(path, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", path);
      return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"notifications\",\n"
                    "  \"nodes\": %zu,\n  \"move_fraction\": %.3f,\n"
                    "  \"host_cores\": %zu,\n"
                    "  \"points\": [\n",
                 kNodes, kMoveFraction, host_cores);
    for (std::size_t i = 0; i < results.size(); ++i) {
      const RunResult& r = results[i];
      std::fprintf(
          f,
          "    {\"users\": %zu, \"subs\": %zu, \"epochs\": %zu, "
          "\"notifications\": %llu, \"notifications_per_sec\": %.0f, "
          "\"notifications_per_sec_requery\": %.0f, "
          "\"speedup_incremental\": %.2f, \"threads\": %zu, "
          "\"match_p50_us\": %.2f, \"match_p99_us\": %.2f,\n"
          "     \"thread_curve\": [",
          r.users, r.subs, r.epochs,
          static_cast<unsigned long long>(r.notifications),
          r.notifications_per_sec, r.notifications_per_sec_requery,
          r.speedup_incremental, r.threads, r.match_p50_us, r.match_p99_us);
      for (std::size_t c = 0; c < r.curve.size(); ++c) {
        std::fprintf(f,
                     "%s{\"threads\": %zu, \"notifications_per_sec\": %.0f}",
                     c == 0 ? "" : ", ", r.curve[c].threads,
                     r.curve[c].notifications_per_sec);
      }
      std::fprintf(f, "]}%s\n", i + 1 < results.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("baseline written to %s\n", path);
  }
  return 0;
}
