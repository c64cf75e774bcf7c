// The serving edge over real sockets: every engine behind the wire.
//
// Where bench_notifications and bench_queries time the engines called
// in-process, this harness pays for the whole serving path: framed bytes
// over loopback TCP, per-connection reassembly, adaptive batching in the
// event loop, engine execution, and the reply/ack/notification frames back
// out.  One serve::Server fronts the headline engine configuration (K=8
// delta-tracking directory, 8 query threads, 8 match threads); blocking
// clients drive a mixed workload against it:
//
//   ingest  — kUpdaterClients parallel connections stream the whole
//             population as LocationUpdate frames in 4096-record batches,
//             each batch fenced by a locate (the query forces the staged
//             ingest visible, so pacing never depends on the flush
//             deadline).  updates_per_sec counts acked wire updates.
//   subs    — one subscriber connection registers the standing
//             subscription mix (10% friend / 45% range / 45% geofence,
//             hot-spot-weighted areas from the workload generator).
//   epochs  — kMoveFraction of the population moves and reports per epoch
//             over the mover connection; the server's ingest flush drains
//             the notification engine and pushes Notify frames to the
//             subscriber connection, and a separate query connection runs
//             a mixed locate/range/kNN batch (queries_per_sec).
//
// Consistency is enforced, not assumed: a serial reference stack (K=1
// directory, single-threaded engines) replays the identical workload
// in-process, and the bench aborts unless the wire results match
// byte-for-byte — every epoch's notification stream, every query batch's
// serialized results, and the final directory image after the server
// stops.  The numbers and the correctness contract come from one run.
//
// Per-message-type latency percentiles come from the server's own
// histograms: read() delivering the request to its reply/ack being queued
// — codec + batching wait + engine time, i.e. the server-side residence a
// client observes minus the wire.
//
// Populations sweep 10k-100k users by default; GEOGRID_BENCH_LARGE=1 adds
// the 1M point, GEOGRID_BENCH_POPS picks the sweep explicitly, and
// --smoke runs the single 10k CI point.  GEOGRID_JSON_OUT=<path> writes
// the machine-readable baseline (BENCH_serve.json).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/engine.h"
#include "core/options.h"
#include "mobility/query_engine.h"
#include "mobility/sharded_directory.h"
#include "net/messages.h"
#include "pubsub/notification_engine.h"
#include "pubsub/subscription_index.h"
#include "serve/client.h"
#include "serve/server.h"
#include "workload/query_gen.h"

using namespace geogrid;

namespace {

constexpr std::size_t kNodes = 1000;
constexpr double kMoveFraction = 0.01;  ///< population reporting per epoch
constexpr double kFriendFraction = 0.10;
constexpr double kRangeFraction = 0.45;  ///< rest of the rect subs: geofence
constexpr std::size_t kUpdaterClients = 4;
constexpr std::size_t kIngestChunk = 4096;  ///< records per fenced wire batch
constexpr std::size_t kSubscriptions = 10'000;
constexpr double kLocateFraction = 0.60;  ///< query mix; 30% range, 10% kNN
constexpr double kRangeQueryFraction = 0.30;
constexpr std::uint32_t kNearestK = 8;

std::vector<std::byte> result_bytes(
    std::span<const mobility::QueryResult> results) {
  net::Writer w;
  mobility::QueryEngine::serialize(w, results);
  return std::move(w).take();
}

std::vector<std::byte> directory_bytes(const mobility::ShardedDirectory& dir) {
  net::Writer w;
  dir.serialize(w);
  return std::move(w).take();
}

void measure(bench::Report& report, std::size_t user_count,
             std::size_t sub_count, std::size_t epochs,
             std::size_t queries_per_epoch, std::uint64_t seed) {
  core::SimulationOptions opt;
  opt.mode = core::GridMode::kDualPeer;
  opt.node_count = kNodes;
  opt.seed = seed;
  core::GridSimulation sim(opt);
  const Rect plane = sim.partition().plane();

  const double cell_size = std::clamp(
      std::sqrt(4096.0 * 16.0 / static_cast<double>(user_count)), 0.25, 2.0);

  // The served stack: the headline engine configuration behind the wire.
  mobility::ShardedDirectory dir(sim.partition(),
                                 {.shards = bench::kHeadline,
                                  .cell_size = cell_size,
                                  .track_deltas = true});
  mobility::QueryEngine queries(dir, {.threads = bench::kHeadline});
  pubsub::SubscriptionIndex subs(plane);
  pubsub::NotificationEngine notify(dir, subs,
                                    {.threads = bench::kHeadline});

  // The determinism reference: same workload, in-process, K=1, serial.
  mobility::ShardedDirectory ref_dir(
      sim.partition(),
      {.shards = 1, .cell_size = cell_size, .track_deltas = true});
  mobility::QueryEngine ref_queries(ref_dir, {.threads = 1});
  pubsub::SubscriptionIndex ref_subs(plane);
  pubsub::NotificationEngine ref_notify(ref_dir, ref_subs, {.threads = 1});

  core::ServeOptions sopt;
  // Movers per epoch (~users * kMoveFraction) must stage below the size
  // watermark so each epoch batch flushes exactly once — the fence query
  // forces it; the deadline is parked out of the way so epoch boundaries
  // are never split by the clock.
  sopt.ingest_flush_records =
      std::max<std::size_t>(kIngestChunk, user_count / 50);
  sopt.flush_deadline_ms = 10'000;
  // A pooled (T > 1) query engine answers a flushed batch whole and
  // queues every reply before the next write pass; at 100k users a
  // 2048-query batch of hot-spot range replies is megabytes, so the output
  // gate must clear the largest reply burst or the server would cut the
  // querier as a slow consumer mid-batch.
  sopt.outbuf_gate_bytes = 16u << 20;
  serve::Server server({dir, queries, subs, notify}, sopt);
  server.start();

  // Initial placement: hot-spot attracted like the motion workloads.
  // Timestamps are 0.0 throughout — the server stamps wire-ingested
  // records the same way, and the final directory images are compared.
  Rng rng(seed * 131 + 3);
  std::vector<Point> positions(user_count);
  std::vector<std::uint64_t> seqs(user_count, 0);
  std::vector<mobility::LocationRecord> initial(user_count);
  for (std::size_t i = 0; i < user_count; ++i) {
    positions[i] = rng.chance(0.3)
                       ? Point{rng.uniform(plane.x, plane.right()),
                               rng.uniform(plane.y, plane.top())}
                       : sim.field().sample_weighted_point(rng);
    initial[i] = {UserId{static_cast<std::uint32_t>(i + 1)}, positions[i],
                  ++seqs[i], 0.0};
  }

  // --- Ingest phase: parallel updater connections, fenced batches. ---
  std::vector<serve::Client> updaters;
  for (std::size_t c = 0; c < kUpdaterClients; ++c) {
    updaters.emplace_back(
        serve::Client::Options{.port = server.port()});
    updaters.back().connect();
  }
  const std::size_t share =
      (user_count + kUpdaterClients - 1) / kUpdaterClients;
  const auto t_ingest = std::chrono::steady_clock::now();
  {
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < kUpdaterClients; ++c) {
      threads.emplace_back([&, c] {
        const std::size_t lo = c * share;
        const std::size_t hi = std::min(user_count, lo + share);
        for (std::size_t i = lo; i < hi; i += kIngestChunk) {
          const std::size_t n = std::min(kIngestChunk, hi - i);
          updaters[c].update_batch({initial.data() + i, n},
                                   /*wait_acks=*/false);
          // The locate fences the batch: it forces the staged ingest
          // visible (one flush), paces the pipeline, and drains the acks
          // buffered on this connection.
          (void)updaters[c].locate(initial[i].user);
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  const double ingest_secs = bench::seconds_since(t_ingest);
  const double updates_rate = static_cast<double>(user_count) / ingest_secs;

  ref_dir.apply_updates(initial);
  if (!ref_notify.drain().empty()) {
    bench::fail("bootstrap drain emitted against an empty index");
  }

  // --- Subscription phase: the standing mix over one connection. ---
  // Areas come from the workload generator's subscription radii, shrunk
  // with 1/sqrt(S) so per-report fan-out stays constant as S scales.
  serve::Client subscriber(serve::Client::Options{.port = server.port()});
  subscriber.connect();
  workload::QueryGenerator::Options gopt =
      workload::QueryGenerator::Options::presence_tracking();
  const double scale =
      std::min(1.0, std::sqrt(10'000.0 / static_cast<double>(sub_count)));
  gopt.sub_min_radius_miles = 0.02 * scale;
  gopt.sub_max_radius_miles = 0.12 * scale;
  workload::QueryGenerator gen(sim.field(), gopt, Rng(seed + 17));
  Rng roll_rng((seed + 17) ^ 0x5eed50b5ULL);
  net::NodeInfo gen_subscriber;
  gen_subscriber.id = NodeId{1};
  const auto t_subs = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < sub_count; ++i) {
    const std::uint64_t sub_id = i + 1;
    const Rect area = gen.next_subscription(gen_subscriber, 3600.0).area;
    const double roll = roll_rng.uniform();
    net::Subscribe mirror;  // what the server decodes, re-built for ref
    mirror.sub_id = sub_id;
    if (roll < kFriendFraction) {
      const UserId tracked{
          static_cast<std::uint32_t>(1 + roll_rng.uniform_index(user_count))};
      subscriber.subscribe_friend(sub_id, tracked);
      mirror.filter = serve::friend_filter(tracked);
      ref_subs.subscribe_friend(mirror, tracked);
    } else if (roll < kFriendFraction + kRangeFraction) {
      mirror.area = area;
      mirror.filter = serve::range_filter(sub_id);
      subscriber.subscribe_area(sub_id, area, mirror.filter);
      ref_subs.subscribe(mirror, pubsub::SubKind::kRange);
    } else {
      mirror.area = area;
      mirror.filter = serve::geofence_filter(sub_id);
      subscriber.subscribe_area(sub_id, area, mirror.filter);
      ref_subs.subscribe(mirror, pubsub::SubKind::kGeofence);
    }
    ref_subs.refresh();
  }
  const double subs_rate =
      static_cast<double>(sub_count) / bench::seconds_since(t_subs);

  // --- Epoch loop: movers report, Notifys push, query batches run. ---
  serve::Client querier(serve::Client::Options{.port = server.port()});
  querier.connect();
  serve::Client& mover = updaters[0];
  std::vector<mobility::LocationRecord> batch;
  std::vector<mobility::Query> qbatch;
  double query_secs = 0.0;
  std::uint64_t query_count = 0;
  std::uint64_t notifications = 0;
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
      batch.push_back(
          {UserId{static_cast<std::uint32_t>(i + 1)}, p, ++seqs[i], 0.0});
    }
    if (batch.empty()) continue;
    if (batch.size() >= sopt.ingest_flush_records) {
      bench::fail("epoch batch crossed the size watermark (epoch would split)");
    }
    mover.update_batch(batch, /*wait_acks=*/false);
    (void)mover.locate(batch.front().user);  // fence: one flush, one drain

    // Reference drain for this epoch, then wait for the wire to match.
    ref_dir.apply_updates(batch);
    const std::vector<pubsub::Notification> ref_drain = ref_notify.drain();
    std::vector<std::byte> want;
    for (const pubsub::Notification& n : ref_drain) {
      const std::vector<std::byte> one =
          net::encode_message(net::Message{ref_notify.to_notify(n)});
      want.insert(want.end(), one.begin(), one.end());
    }
    const auto t_wait = std::chrono::steady_clock::now();
    while (subscriber.poll_notifications(10) < ref_drain.size() &&
           bench::seconds_since(t_wait) < 10.0) {
    }
    const std::vector<net::Notify> got = subscriber.take_notifications();
    if (got.size() != ref_drain.size()) {
      bench::fail("notification count diverged from the serial reference");
    }
    std::vector<std::byte> have;
    for (const net::Notify& n : got) {
      const std::vector<std::byte> one = net::encode_message(net::Message{n});
      have.insert(have.end(), one.begin(), one.end());
    }
    if (have != want) {
      bench::fail("notification stream diverged from the serial reference");
    }
    notifications += got.size();

    // Mixed query batch: one wire round trip, compared as one serialized
    // result stream against the in-process reference engine.
    qbatch.clear();
    for (std::size_t i = 0; i < queries_per_epoch; ++i) {
      const double qroll = rng.uniform();
      if (qroll < kLocateFraction) {
        qbatch.push_back(mobility::Query::locate(UserId{
            static_cast<std::uint32_t>(1 + rng.uniform_index(user_count))}));
      } else if (qroll < kLocateFraction + kRangeQueryFraction) {
        const Point c = sim.field().sample_weighted_point(rng);
        const double w = rng.uniform(0.5, 2.0);
        const double h = rng.uniform(0.5, 2.0);
        Rect rect{std::clamp(c.x - w / 2.0, plane.x, plane.right() - w),
                  std::clamp(c.y - h / 2.0, plane.y, plane.top() - h), w, h};
        qbatch.push_back(mobility::Query::range(rect));
      } else {
        qbatch.push_back(mobility::Query::nearest(
            sim.field().sample_weighted_point(rng), kNearestK));
      }
    }
    const auto t_q = std::chrono::steady_clock::now();
    const std::vector<mobility::QueryResult> wire_results =
        querier.query_batch(qbatch);
    query_secs += bench::seconds_since(t_q);
    const std::vector<mobility::QueryResult> ref_results =
        ref_queries.run(qbatch);
    if (result_bytes(wire_results) != result_bytes(ref_results)) {
      bench::fail("query result stream diverged from the serial reference");
    }
    query_count += qbatch.size();
  }

  const serve::Server::Counters c = server.counters();
  if (c.malformed_frames != 0) bench::fail("server counted malformed frames");
  if (c.slow_consumer_closes != 0) bench::fail("server closed a slow consumer");
  // Stop first: the join is the synchronisation point that makes reading
  // the served directory from this thread well-defined.
  server.stop();
  if (directory_bytes(dir) != directory_bytes(ref_dir)) {
    bench::fail("final directory image diverged (K=8 wire vs K=1 in-process)");
  }
  const auto p99_us = [&server](net::MsgType type) {
    return server.latency(type).percentile_micros(99);
  };
  report.add({{"users", user_count},
              {"subs", sub_count},
              {"epochs", epochs},
              {"queries", query_count},
              {"notifications", notifications},
              {"updates_per_sec", updates_rate, 0},
              {"subs_per_sec", subs_rate, 0},
              {"queries_per_sec",
               static_cast<double>(query_count) / query_secs, 0},
              {"mean_ingest_batch",
               c.ingest_flushes == 0
                   ? 0.0
                   : static_cast<double>(c.updates_in) /
                         static_cast<double>(c.ingest_flushes),
               0},
              {"p99_update_us", p99_us(net::MsgType::kLocationUpdate), 2},
              {"p99_locate_us", p99_us(net::MsgType::kLocateRequest), 2},
              {"p99_range_us", p99_us(net::MsgType::kLocationQuery), 2},
              {"p99_nearest_us", p99_us(net::MsgType::kNearestRequest), 2}});
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  const std::size_t epochs = smoke ? 5 : 10;
  const std::size_t queries_per_epoch = smoke ? 512 : 2048;
  bench::Report report(
      "serve",
      "Serve loopback: engine grid behind a real TCP edge, updater "
      "clients plus one subscriber, mover and querier connection",
      {{"nodes", kNodes},
       {"move_fraction", kMoveFraction, 3},
       {"updater_clients", kUpdaterClients},
       {"host_cores", bench::host_cores()}});
  for (const std::size_t users :
       smoke ? std::vector<std::size_t>{10'000}
             : bench::pick_populations({10'000, 100'000})) {
    measure(report, users, kSubscriptions, epochs, queries_per_epoch, 4242);
  }
  return report.finish();
}
