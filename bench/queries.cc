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
//              16) on the run_pinned epoch-reclamation hot path; the
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
// and kNN, multiset-equal for range).  Any mismatch aborts the bench.
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
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>
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
/// Explicit thread counts for the scaling curve; 8 is the headline entry.
constexpr std::size_t kThreadSweep[] = {1, 2, 4, 8, 16};
constexpr std::size_t kHeadlineThreads = 8;

struct CurvePoint {
  std::size_t threads = 0;
  double queries_per_sec = 0.0;
};

struct RunResult {
  std::size_t users = 0;
  std::size_t queries = 0;
  double queries_per_sec = 0.0;           ///< serial per-call (baseline key)
  double queries_per_sec_batched = 0.0;   ///< QueryEngine, 1 thread
  double queries_per_sec_parallel = 0.0;  ///< QueryEngine, 8 threads, pinned
  std::size_t threads = 0;                ///< thread count of the parallel run
  std::vector<CurvePoint> curve;          ///< the full thread sweep
  double speedup_batched = 0.0;
  std::uint64_t records_returned = 0;
  double locate_p50_us = 0.0, locate_p99_us = 0.0;
  double range_p50_us = 0.0, range_p99_us = 0.0;
  double knn_p50_us = 0.0, knn_p99_us = 0.0;
  double batched_p50_us = 0.0, batched_p99_us = 0.0;
};

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

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

void fail(const char* what) {
  std::fprintf(stderr, "consistency violation: %s\n", what);
  std::exit(1);
}

/// Sampled serial-vs-engine answer check: exact for locate and kNN,
/// multiset-equal for range (the two paths merge regions in different
/// orders, which is not part of either contract).
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
        if (r.found != expect.has_value()) fail("locate presence");
        if (expect && !(r.located == *expect)) fail("locate record");
        break;
      }
      case mobility::Query::Kind::kRange:
        if (sorted(r.records) != sorted(dir.range(q.rect))) {
          fail("range multiset");
        }
        break;
      case mobility::Query::Kind::kNearest: {
        const auto expect = dir.k_nearest(q.point, q.k);
        if (r.records != expect) fail("k_nearest order");
        break;
      }
    }
  }
}

RunResult measure(std::size_t user_count, std::uint64_t seed) {
  core::SimulationOptions opt;
  opt.mode = core::GridMode::kDualPeer;
  opt.node_count = kNodes;
  opt.seed = seed;
  core::GridSimulation sim(opt);

  RunResult r;
  r.users = user_count;
  r.queries = kQueries;

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
  mobility::ShardedDirectory dir_k8(sim.partition(),
                                    {.shards = 8, .cell_size = cell_size});
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
  const double serial_secs = seconds_since(serial_start);
  r.queries_per_sec = static_cast<double>(kQueries) / serial_secs;

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
        locate_lat.record_seconds(seconds_since(t0));
        break;
      case mobility::Query::Kind::kRange:
        (void)dir.range(q.rect);
        range_lat.record_seconds(seconds_since(t0));
        break;
      case mobility::Query::Kind::kNearest:
        (void)dir.k_nearest(q.point, q.k);
        knn_lat.record_seconds(seconds_since(t0));
        break;
    }
  }
  r.locate_p50_us = locate_lat.percentile_micros(50);
  r.locate_p99_us = locate_lat.percentile_micros(99);
  r.range_p50_us = range_lat.percentile_micros(50);
  r.range_p99_us = range_lat.percentile_micros(99);
  r.knn_p50_us = knn_lat.percentile_micros(50);
  r.knn_p99_us = knn_lat.percentile_micros(99);

  // --- batched engine, 1 thread ---------------------------------------
  mobility::QueryEngine batched(dir, {.threads = 1});
  metrics::LatencyHistogram batched_lat;
  std::vector<std::byte> batched_bytes;
  {
    std::vector<mobility::QueryResult> all;
    all.reserve(kQueries);
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t lo = 0; lo < queries.size(); lo += kBatchSize) {
      const std::size_t n = std::min(kBatchSize, queries.size() - lo);
      const auto t0 = std::chrono::steady_clock::now();
      auto part = batched.run(std::span(queries).subspan(lo, n));
      batched_lat.record_seconds(seconds_since(t0) /
                                 static_cast<double>(n));
      for (auto& res : part) all.push_back(std::move(res));
    }
    const double secs = seconds_since(start);
    r.queries_per_sec_batched = static_cast<double>(kQueries) / secs;
    r.records_returned = batched.counters().records_returned;
    if (r.records_returned != serial_records) fail("records_returned total");
    cross_check(dir, queries, all);
    batched_bytes = result_bytes(all);
  }
  r.batched_p50_us = batched_lat.percentile_micros(50);
  r.batched_p99_us = batched_lat.percentile_micros(99);

  // --- parallel engine thread sweep, pinned-snapshot hot path ----------
  // One publish up front; every engine in the sweep then acquires the
  // snapshot through run_pinned (epoch reclamation, no shared refcount) —
  // the concurrent-reader deployment measured at each thread count.
  // Every entry must reproduce the batched engine's bytes exactly.
  (void)dir.publish_snapshot();
  for (const std::size_t t : kThreadSweep) {
    mobility::QueryEngine engine(dir, {.threads = t});
    std::vector<mobility::QueryResult> all;
    all.reserve(kQueries);
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t lo = 0; lo < queries.size(); lo += kBatchSize) {
      const std::size_t n = std::min(kBatchSize, queries.size() - lo);
      auto part = engine.run_pinned(std::span(queries).subspan(lo, n));
      for (auto& res : part) all.push_back(std::move(res));
    }
    const double secs = seconds_since(start);
    if (result_bytes(all) != batched_bytes) fail("thread-count invariance");
    CurvePoint pt;
    pt.threads = engine.thread_count();
    pt.queries_per_sec = static_cast<double>(kQueries) / secs;
    r.curve.push_back(pt);
    if (t == kHeadlineThreads) {
      r.queries_per_sec_parallel = pt.queries_per_sec;
      r.threads = pt.threads;
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
    if (result_bytes(all) != batched_bytes) fail("shard-count invariance");
  }

  r.speedup_batched = r.queries_per_sec_batched / r.queries_per_sec;
  return r;
}

}  // namespace

int main() {
  const std::vector<std::size_t> populations =
      bench::pick_populations({10'000, 30'000, 100'000});
  const std::size_t host_cores =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());

  std::printf("Queries: %zu-node engine grid, %zu mixed locate/range/kNN "
              "queries per point (k=%zu, host cores: %zu)\n",
              kNodes, kQueries, kNearestK, host_cores);
  auto csv = bench::csv_for("queries");
  if (csv) {
    csv->header({"users", "queries", "queries_per_sec",
                 "queries_per_sec_batched", "queries_per_sec_parallel",
                 "threads", "speedup_batched", "records_returned",
                 "locate_p50_us", "locate_p99_us", "range_p50_us",
                 "range_p99_us", "knn_p50_us", "knn_p99_us",
                 "batched_p50_us", "batched_p99_us"});
  }

  std::vector<RunResult> results;
  std::printf("%9s %12s %13s %13s %14s %8s %8s %14s\n", "users", "queries",
              "serial/sec", "batched/sec", "parallel/sec", "threads",
              "speedup", "records");
  for (const std::size_t users : populations) {
    const RunResult r = measure(users, 4242);
    results.push_back(r);
    std::printf("%9zu %12zu %13.0f %13.0f %14.0f %8zu %7.2fx %14llu\n",
                r.users, r.queries, r.queries_per_sec,
                r.queries_per_sec_batched, r.queries_per_sec_parallel,
                r.threads, r.speedup_batched,
                static_cast<unsigned long long>(r.records_returned));
    std::printf("          serial   locate p50/p99 %.1f/%.1fus   "
                "range %.1f/%.1fus   knn %.1f/%.1fus\n",
                r.locate_p50_us, r.locate_p99_us, r.range_p50_us,
                r.range_p99_us, r.knn_p50_us, r.knn_p99_us);
    std::printf("          batched  per-query p50/p99 %.2f/%.2fus "
                "(amortized over %zu-query batches)\n",
                r.batched_p50_us, r.batched_p99_us, kBatchSize);
    for (const CurvePoint& pt : r.curve) {
      std::printf("          threads=%-3zu %14.0f queries/sec\n", pt.threads,
                  pt.queries_per_sec);
    }
    if (csv) {
      csv->row(r.users, r.queries, r.queries_per_sec,
               r.queries_per_sec_batched, r.queries_per_sec_parallel,
               r.threads, r.speedup_batched, r.records_returned,
               r.locate_p50_us, r.locate_p99_us, r.range_p50_us,
               r.range_p99_us, r.knn_p50_us, r.knn_p99_us, r.batched_p50_us,
               r.batched_p99_us);
    }
  }
  std::printf("consistency violations: 0\n");

  if (const char* path = std::getenv("GEOGRID_JSON_OUT")) {
    std::FILE* f = std::fopen(path, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", path);
      return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"queries\",\n"
                    "  \"nodes\": %zu,\n  \"queries\": %zu,\n"
                    "  \"host_cores\": %zu,\n"
                    "  \"points\": [\n",
                 kNodes, kQueries, host_cores);
    for (std::size_t i = 0; i < results.size(); ++i) {
      const RunResult& r = results[i];
      std::fprintf(
          f,
          "    {\"users\": %zu, \"queries\": %zu, "
          "\"queries_per_sec\": %.0f, \"queries_per_sec_batched\": %.0f, "
          "\"queries_per_sec_parallel\": %.0f, \"threads\": %zu, "
          "\"speedup_batched\": %.2f, \"records_returned\": %llu, "
          "\"locate_p50_us\": %.2f, \"locate_p99_us\": %.2f, "
          "\"range_p50_us\": %.2f, \"range_p99_us\": %.2f, "
          "\"knn_p50_us\": %.2f, \"knn_p99_us\": %.2f, "
          "\"batched_p50_us\": %.2f, \"batched_p99_us\": %.2f,\n"
          "     \"thread_curve\": [",
          r.users, r.queries, r.queries_per_sec, r.queries_per_sec_batched,
          r.queries_per_sec_parallel, r.threads, r.speedup_batched,
          static_cast<unsigned long long>(r.records_returned),
          r.locate_p50_us, r.locate_p99_us, r.range_p50_us, r.range_p99_us,
          r.knn_p50_us, r.knn_p99_us, r.batched_p50_us, r.batched_p99_us);
      for (std::size_t c = 0; c < r.curve.size(); ++c) {
        std::fprintf(f, "%s{\"threads\": %zu, \"queries_per_sec\": %.0f}",
                     c == 0 ? "" : ", ", r.curve[c].threads,
                     r.curve[c].queries_per_sec);
      }
      std::fprintf(f, "]}%s\n", i + 1 < results.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("baseline written to %s\n", path);
  }
  return 0;
}
