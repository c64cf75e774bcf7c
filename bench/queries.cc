// Mobile-user read-path throughput: aggregate queries/sec of a mixed
// locate / range / k-nearest workload versus user population.
//
// Each population is ingested once (batched motion trace over the
// engine-mode grid), then an identical pre-generated query list runs
// through three read configurations:
//
//   serial   — ShardedDirectory's per-call locate/range/k_nearest: every
//              range scans all R partition regions, every kNN orders all
//              resident stores by rect distance (the committed-baseline
//              configuration; queries_per_sec)
//   batched  — mobility::QueryEngine with 1 thread against a published
//              DirectorySnapshot: grid-indexed region discovery through
//              the shared RegionResolver, still single-threaded
//   parallel — QueryEngine swept over explicit thread counts (1, 2, 4, 8,
//              16) on the pinned-snapshot read path (a registered
//              reader, an EpochDomain::Guard per batch, run_on); the
//              headline parallel number is the 8-thread entry, recorded
//              with the host's core count so a scaling gate can judge the
//              curve against what the machine could physically deliver
//
// The range footprints come from services::Geolocator::query_area — the
// paper's radius-γ area query mapped to its plane-clamped bounding box
// around a plane-uniform origin.
//
// Consistency is enforced, not assumed: the batched and parallel engines
// must produce byte-identical serialized results, an engine over a K=8
// directory must match the K=1 engine byte-for-byte, and a sampled
// cross-check pins engine answers to the serial path (exact for locate
// and kNN; for range, the serial scan sorted by user id).  Any mismatch
// aborts the bench.
//
// Latency is reported from metrics::LatencyHistogram: per-call
// percentiles by query kind for the serial path, and per-query amortized
// batch latency for the batched path.
//
// Populations sweep 10k-100k by default; set GEOGRID_BENCH_LARGE=1 to add
// the 1M-user point, or GEOGRID_BENCH_POPS=10000,50000 to pick the sweep
// explicitly.  Set GEOGRID_JSON_OUT=<path> to write the machine-readable
// baseline (BENCH_queries.json).  GEOGRID_BENCH_KIND=0|1|2 forces a
// homogeneous locate/range/kNN workload for per-kind profiling.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <vector>

#include "bench_util.h"
#include "core/engine.h"
#include "metrics/latency.h"
#include "mobility/motion.h"
#include "mobility/query_engine.h"
#include "mobility/sharded_directory.h"
#include "services/geolocator.h"

using namespace geogrid;

namespace {

constexpr std::size_t kNodes = 1000;
constexpr int kIngestTicks = 10;
constexpr std::size_t kQueries = 120'000;
constexpr std::size_t kBatchSize = 4096;
constexpr std::size_t kLatencySample = 30'000;
constexpr std::size_t kNearestK = 16;
/// Named by each point (the serial rate) and by each thread-curve entry.
constexpr char kQueriesPerSec[] = "queries_per_sec";
/// Carried both run-wide and per point.
const bench::Metric kQueryCount{"queries", kQueries};

void ingest_population(core::GridSimulation& sim, std::size_t user_count,
                       std::uint64_t seed, mobility::ShardedDirectory& dir) {
  mobility::UserPopulation::Options mopt;
  mopt.model = mobility::MotionModel::kHotspotAttracted;
  mobility::UserPopulation pop(user_count, mopt, &sim.field(),
                               Rng(seed * 31 + 7));
  std::vector<mobility::LocationRecord> batch(user_count);
  double now = 0.0;
  for (int tick = 0; tick < kIngestTicks; ++tick) {
    now += 1.0;
    pop.step(1.0, now);
    auto& users = pop.users();
    for (std::size_t i = 0; i < users.size(); ++i) {
      batch[i] = {users[i].id, users[i].position, users[i].next_seq++, now};
    }
    dir.apply_updates(batch);
  }
}

/// The mixed workload: one third locate (uniform over user ids), one third
/// range (Geolocator query areas around plane-uniform origins), one third
/// k-nearest from plane-uniform origins.
std::vector<mobility::Query> make_queries(services::Geolocator& geo,
                                          std::size_t user_count,
                                          std::uint64_t seed) {
  Rng rng(seed);
  std::vector<mobility::Query> qs;
  qs.reserve(kQueries);
  int force = -1;  // debug: GEOGRID_BENCH_KIND=0|1|2 for a homogeneous mix
  if (const char* env = std::getenv("GEOGRID_BENCH_KIND")) force = env[0] - '0';
  for (std::size_t i = 0; i < kQueries; ++i) {
    switch (force >= 0 ? static_cast<std::size_t>(force) : i % 3) {
      case 0:
        qs.push_back(mobility::Query::locate(UserId{
            static_cast<std::uint32_t>(1 + rng.uniform_index(user_count))}));
        break;
      case 1: {
        const double radius = rng.uniform(0.1, 0.35);
        qs.push_back(mobility::Query::range(
            geo.query_area(geo.random_position(), radius)));
        break;
      }
      default:
        qs.push_back(
            mobility::Query::nearest(geo.random_position(), kNearestK));
    }
  }
  return qs;
}

std::vector<std::byte> result_bytes(
    std::span<const mobility::QueryResult> results) {
  net::Writer w;
  mobility::QueryEngine::serialize(w, results);
  return std::move(w).take();
}

/// Sampled serial-vs-engine answer check: exact for locate and kNN.  A
/// range answer must equal the serial scan sorted by user id, the engine's
/// canonical order.
void cross_check(const mobility::ShardedDirectory& dir,
                 std::span<const mobility::Query> queries,
                 std::span<const mobility::QueryResult> results) {
  const auto sorted = [](std::vector<mobility::LocationRecord> v) {
    std::sort(v.begin(), v.end(),
              [](const auto& a, const auto& b) { return a.user < b.user; });
    return v;
  };
  for (std::size_t i = 0; i < queries.size(); i += 37) {
    const auto& q = queries[i];
    const auto& r = results[i];
    switch (q.kind) {
      case mobility::Query::Kind::kLocate: {
        const auto expect = dir.locate(q.user);
        if (r.found != expect.has_value()) bench::fail("locate presence");
        if (expect && !(r.located == *expect)) bench::fail("locate record");
        break;
      }
      case mobility::Query::Kind::kRange:
        if (r.records != sorted(dir.range(q.rect))) {
          bench::fail("range order");
        }
        break;
      case mobility::Query::Kind::kNearest: {
        const auto expect = dir.k_nearest(q.point, q.k);
        if (r.records != expect) bench::fail("k_nearest order");
        break;
      }
    }
  }
}

void measure(bench::Report& report, std::size_t user_count,
             std::uint64_t seed) {
  core::SimulationOptions opt;
  opt.mode = core::GridMode::kDualPeer;
  opt.node_count = kNodes;
  opt.seed = seed;
  core::GridSimulation sim(opt);

  // Store-cell pitch scaled to the population: ~16 users per cell at
  // uniform density.  A fixed pitch either leaves 1M-user hot cells with
  // five-digit populations (in-cell scans dominate every read path
  // identically) or forces sparse-population kNN to sweep hundreds of
  // empty cells.  Both directories get the same pitch, so the serial and
  // batched paths always read identical stores.
  const double cell_size = std::clamp(
      std::sqrt(4096.0 * 16.0 / static_cast<double>(user_count)), 0.25, 2.0);
  mobility::ShardedDirectory dir(sim.partition(),
                                 {.shards = 1, .cell_size = cell_size});
  ingest_population(sim, user_count, seed, dir);
  // A K=8 twin of the same trace pins shard-count invariance end to end.
  mobility::ShardedDirectory dir_k8(
      sim.partition(), {.shards = bench::kHeadline, .cell_size = cell_size});
  ingest_population(sim, user_count, seed, dir_k8);

  services::Geolocator geo(sim.partition().plane(), {}, Rng(seed + 5));
  const auto queries = make_queries(geo, user_count, seed + 13);

  // --- serial per-call path -------------------------------------------
  std::uint64_t serial_records = 0;
  const auto serial_start = std::chrono::steady_clock::now();
  for (const auto& q : queries) {
    switch (q.kind) {
      case mobility::Query::Kind::kLocate:
        serial_records += dir.locate(q.user).has_value() ? 1 : 0;
        break;
      case mobility::Query::Kind::kRange:
        serial_records += dir.range(q.rect).size();
        break;
      case mobility::Query::Kind::kNearest:
        serial_records += dir.k_nearest(q.point, q.k).size();
        break;
    }
  }
  const double serial_rate =
      static_cast<double>(kQueries) / bench::seconds_since(serial_start);

  // Per-kind serial latency percentiles over a deterministic sample
  // (clocked separately so timer overhead never inflates the throughput
  // numbers above).
  metrics::LatencyHistogram locate_lat, range_lat, knn_lat;
  for (std::size_t i = 0; i < std::min(kLatencySample, queries.size()); ++i) {
    const auto& q = queries[i];
    const auto t0 = std::chrono::steady_clock::now();
    switch (q.kind) {
      case mobility::Query::Kind::kLocate:
        (void)dir.locate(q.user);
        locate_lat.record_seconds(bench::seconds_since(t0));
        break;
      case mobility::Query::Kind::kRange:
        (void)dir.range(q.rect);
        range_lat.record_seconds(bench::seconds_since(t0));
        break;
      case mobility::Query::Kind::kNearest:
        (void)dir.k_nearest(q.point, q.k);
        knn_lat.record_seconds(bench::seconds_since(t0));
        break;
    }
  }

  // --- batched engine, 1 thread ---------------------------------------
  mobility::QueryEngine batched(dir, {.threads = 1});
  metrics::LatencyHistogram batched_lat;
  std::vector<std::byte> batched_bytes;
  double batched_rate = 0.0;
  {
    std::vector<mobility::QueryResult> all;
    all.reserve(kQueries);
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t lo = 0; lo < queries.size(); lo += kBatchSize) {
      const std::size_t n = std::min(kBatchSize, queries.size() - lo);
      const auto t0 = std::chrono::steady_clock::now();
      auto part = batched.run(std::span(queries).subspan(lo, n));
      batched_lat.record_seconds(bench::seconds_since(t0) /
                                 static_cast<double>(n));
      for (auto& res : part) all.push_back(std::move(res));
    }
    batched_rate = static_cast<double>(kQueries) / bench::seconds_since(start);
    if (batched.counters().records_returned != serial_records) {
      bench::fail("records_returned total");
    }
    cross_check(dir, queries, all);
    batched_bytes = result_bytes(all);
  }

  // --- parallel engine thread sweep, pinned-snapshot hot path ----------
  // One publish up front; every batch of the sweep then pins the snapshot
  // through one registered reader (epoch reclamation, no shared refcount)
  // — the concurrent-reader deployment measured at each thread count.
  // Every entry must reproduce the batched engine's bytes exactly.
  (void)dir.publish_snapshot();
  common::EpochDomain::Reader reader = dir.register_reader();
  double parallel_rate = 0.0;
  std::size_t parallel_threads = 0;
  std::vector<bench::CurveEntry> curve;
  for (const std::size_t t : bench::kSweep) {
    mobility::QueryEngine engine(dir, {.threads = t});
    std::vector<mobility::QueryResult> all;
    all.reserve(kQueries);
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t lo = 0; lo < queries.size(); lo += kBatchSize) {
      const std::size_t n = std::min(kBatchSize, queries.size() - lo);
      common::EpochDomain::Guard pin(reader);
      auto part = engine.run_on(*dir.pinned_snapshot(),
                                std::span(queries).subspan(lo, n));
      for (auto& res : part) all.push_back(std::move(res));
    }
    const double rate =
        static_cast<double>(kQueries) / bench::seconds_since(start);
    if (result_bytes(all) != batched_bytes) {
      bench::fail("thread-count invariance");
    }
    curve.push_back({engine.thread_count(), {{kQueriesPerSec, rate, 0}}});
    if (t == bench::kHeadline) {
      parallel_rate = rate;
      parallel_threads = engine.thread_count();
    }
  }

  // --- shard-count invariance: K=8 engine, same queries ----------------
  {
    mobility::QueryEngine k8_engine(dir_k8, {.threads = 1});
    std::vector<mobility::QueryResult> all;
    all.reserve(kQueries);
    for (std::size_t lo = 0; lo < queries.size(); lo += kBatchSize) {
      const std::size_t n = std::min(kBatchSize, queries.size() - lo);
      auto part = k8_engine.run(std::span(queries).subspan(lo, n));
      for (auto& res : part) all.push_back(std::move(res));
    }
    if (result_bytes(all) != batched_bytes) {
      bench::fail("shard-count invariance");
    }
  }

  report.add({{"users", user_count},
              kQueryCount,
              {kQueriesPerSec, serial_rate, 0},
              {"queries_per_sec_batched", batched_rate, 0},
              {"queries_per_sec_parallel", parallel_rate, 0},
              {"threads", parallel_threads},
              {"speedup_batched", batched_rate / serial_rate, 2},
              {"records_returned", serial_records},
              {"locate_p50_us", locate_lat.percentile_micros(50), 2},
              {"locate_p99_us", locate_lat.percentile_micros(99), 2},
              {"range_p50_us", range_lat.percentile_micros(50), 2},
              {"range_p99_us", range_lat.percentile_micros(99), 2},
              {"knn_p50_us", knn_lat.percentile_micros(50), 2},
              {"knn_p99_us", knn_lat.percentile_micros(99), 2},
              {"batched_p50_us", batched_lat.percentile_micros(50), 2},
              {"batched_p99_us", batched_lat.percentile_micros(99), 2}},
             std::move(curve));
}

}  // namespace

int main() {
  bench::Report report(
      "queries",
      "Queries: engine grid, one mixed locate/range/kNN query list per "
      "point",
      {{"nodes", kNodes},
       kQueryCount,
       {"host_cores", bench::host_cores()}});
  for (const std::size_t users :
       bench::pick_populations({10'000, 30'000, 100'000})) {
    measure(report, users, 4242);
  }
  return report.finish();
}
