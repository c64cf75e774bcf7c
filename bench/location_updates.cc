// Mobile-user ingestion throughput: sustained location updates/sec and
// locate cost versus user population, over the engine-mode fast path.
//
// Each population runs the full motion loop for 60 virtual seconds: every
// virtual second the seeded random-waypoint/hot-spot walk advances and every
// user reports its position, so the numbers include region lookup, handoff
// eviction and spatial-index maintenance — not just hash-map inserts.
// The engines run on identical traces:
//
//   serial   — mobility::LocationDirectory, one apply_update per report
//              (the committed-baseline configuration; updates_per_sec)
//   K-shard  — mobility::ShardedDirectory swept over explicit shard counts
//              (1, 2, 4, 8, 16): the batched fast path with the rect-memo
//              locate.  K = 1 is the single-threaded batched configuration
//              (updates_per_sec_k1); K = 8 is the headline parallel
//              configuration (updates_per_sec_sharded), recorded together
//              with the real thread count it ran and the host's core count
//              — never a silently-collapsed default.
//
// The engines' applied/stale/handoff counters are cross-checked after every
// run — a mismatch aborts the bench, so the throughput numbers can only
// come from equivalent work.  On top of the counters, every swept shard
// count serializes its final directory canonically and the bytes must match
// the K = 1 reference exactly: the parallel path is held to byte-identical
// results, not just matching tallies.
//
// Locate cost is measured two ways: wall-clock latency of point lookups,
// and the greedy-routing hop count a LocateRequest would pay on the wire
// (metrics::target_hop_summary against sampled user positions).
//
// Populations sweep 10k-100k by default; set GEOGRID_BENCH_LARGE=1 to add
// the 1M-user point, or GEOGRID_BENCH_POPS=10000,50000 to pick the sweep
// explicitly.  Set GEOGRID_JSON_OUT=<path> to write the machine-readable
// baseline (BENCH_location_updates.json).  The JSON carries the full
// per-population thread curve plus "host_cores", so a scaling gate can
// judge the curve against what the host could physically deliver.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/stats.h"
#include "core/engine.h"
#include "metrics/collector.h"
#include "mobility/directory.h"
#include "mobility/motion.h"
#include "mobility/sharded_directory.h"
#include "net/codec.h"

using namespace geogrid;

namespace {

constexpr double kVirtualSeconds = 60.0;
constexpr std::size_t kNodes = 1000;
constexpr std::size_t kLocateSamples = 100'000;
constexpr std::size_t kHopTargets = 2'000;
/// Explicit shard counts for the scaling curve.  Every entry runs the same
/// trace; K = 1 and K = 8 double as the baseline keys.
constexpr std::size_t kShardSweep[] = {1, 2, 4, 8, 16};
constexpr std::size_t kHeadlineShards = 8;

struct CurvePoint {
  std::size_t shards = 0;   ///< requested and actual shard count
  std::size_t threads = 0;  ///< pool tasks executing the batch (== shards)
  double updates_per_sec = 0.0;
};

struct RunResult {
  std::size_t users = 0;
  double updates_per_sec = 0.0;  ///< serial LocationDirectory (baseline key)
  double updates_per_sec_k1 = 0.0;       ///< ShardedDirectory, 1 shard
  double updates_per_sec_sharded = 0.0;  ///< ShardedDirectory, 8 shards
  std::size_t shards = 0;   ///< shard count of the headline sharded run
  std::size_t threads = 0;  ///< thread count of the headline sharded run
  std::vector<CurvePoint> curve;  ///< the full shard sweep
  double locate_ns = 0.0;         ///< mean wall-clock point-lookup latency
  double locate_hops_mean = 0.0;  ///< greedy-routing hops to the owner
  double locate_hops_max = 0.0;
  std::uint64_t handoffs = 0;  ///< region-boundary crossings
  std::uint64_t updates = 0;
};

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

mobility::UserPopulation make_population(std::size_t user_count,
                                         std::uint64_t seed,
                                         workload::HotSpotField* field) {
  mobility::UserPopulation::Options mopt;
  mopt.model = mobility::MotionModel::kHotspotAttracted;
  return mobility::UserPopulation(user_count, mopt, field,
                                  Rng(seed * 31 + 7));
}

/// Serial reference: one apply_update per report, per-tick motion stepping
/// inside the timed loop (the committed baseline's methodology).
double run_serial(core::GridSimulation& sim, std::size_t user_count,
                  std::uint64_t seed, mobility::LocationDirectory& dir) {
  auto pop = make_population(user_count, seed, &sim.field());
  const auto start = std::chrono::steady_clock::now();
  double now = 0.0;
  for (int tick = 0; tick < static_cast<int>(kVirtualSeconds); ++tick) {
    now += 1.0;
    pop.step(1.0, now);
    for (auto& u : pop.users()) {
      dir.apply_update({u.id, u.position, u.next_seq++, now});
    }
  }
  return seconds_since(start);
}

/// Batched path: same trace, same in-loop motion stepping, one
/// apply_updates call per tick.
double run_sharded(core::GridSimulation& sim, std::size_t user_count,
                   std::uint64_t seed, mobility::ShardedDirectory& dir) {
  auto pop = make_population(user_count, seed, &sim.field());
  std::vector<mobility::LocationRecord> batch(user_count);
  const auto start = std::chrono::steady_clock::now();
  double now = 0.0;
  for (int tick = 0; tick < static_cast<int>(kVirtualSeconds); ++tick) {
    now += 1.0;
    pop.step(1.0, now);
    auto& users = pop.users();
    for (std::size_t i = 0; i < users.size(); ++i) {
      batch[i] = {users[i].id, users[i].position, users[i].next_seq++, now};
    }
    dir.apply_updates(batch);
  }
  return seconds_since(start);
}

void check_parity(const char* what, std::uint64_t a, std::uint64_t b) {
  if (a != b) {
    std::fprintf(stderr, "engine mismatch on %s: %llu vs %llu\n", what,
                 static_cast<unsigned long long>(a),
                 static_cast<unsigned long long>(b));
    std::exit(1);
  }
}

std::vector<std::byte> canonical_bytes(const mobility::ShardedDirectory& dir) {
  net::Writer w;
  dir.serialize(w);
  return std::move(w).take();
}

RunResult measure(std::size_t user_count, std::uint64_t seed) {
  core::SimulationOptions opt;
  opt.mode = core::GridMode::kDualPeer;
  opt.node_count = kNodes;
  opt.seed = seed;
  core::GridSimulation sim(opt);

  RunResult r;
  r.users = user_count;

  mobility::LocationDirectory serial_dir(sim.partition());
  const double serial_secs = run_serial(sim, user_count, seed, serial_dir);
  r.updates = serial_dir.counters().updates_applied +
              serial_dir.counters().updates_stale;
  r.updates_per_sec = static_cast<double>(r.updates) / serial_secs;
  r.handoffs = serial_dir.counters().handoffs;

  // Explicit shard sweep on the same trace.  Every configuration must
  // reproduce the serial counters AND the K = 1 canonical bytes.
  std::vector<std::byte> reference_bytes;
  for (const std::size_t k : kShardSweep) {
    mobility::ShardedDirectory dir(sim.partition(), {.shards = k});
    const double secs = run_sharded(sim, user_count, seed, dir);
    check_parity("updates_applied", serial_dir.counters().updates_applied,
                 dir.counters().updates_applied);
    check_parity("updates_stale", serial_dir.counters().updates_stale,
                 dir.counters().updates_stale);
    check_parity("handoffs", serial_dir.counters().handoffs,
                 dir.counters().handoffs);
    const std::vector<std::byte> bytes = canonical_bytes(dir);
    if (reference_bytes.empty()) {
      reference_bytes = bytes;
    } else if (bytes != reference_bytes) {
      std::fprintf(stderr,
                   "shard-count divergence: K=%zu serializes differently "
                   "from K=%zu\n",
                   k, kShardSweep[0]);
      std::exit(1);
    }

    CurvePoint pt;
    pt.shards = dir.shard_count();
    pt.threads = dir.shard_count();
    pt.updates_per_sec = static_cast<double>(r.updates) / secs;
    r.curve.push_back(pt);
    if (k == 1) r.updates_per_sec_k1 = pt.updates_per_sec;
    if (k == kHeadlineShards) {
      r.updates_per_sec_sharded = pt.updates_per_sec;
      r.shards = pt.shards;
      r.threads = pt.threads;

      // Point-lookup latency over a deterministic sample of the population,
      // against this (headline) engine's per-user memo.
      Rng sample_rng(seed + 1);
      std::vector<UserId> probes(kLocateSamples);
      for (auto& p : probes) {
        p = UserId{static_cast<std::uint32_t>(
            sample_rng.uniform_index(user_count) + 1)};
      }
      const auto locate_start = std::chrono::steady_clock::now();
      std::size_t found = 0;
      for (const UserId u : probes) {
        if (dir.locate(u).has_value()) ++found;
      }
      const double locate_secs = seconds_since(locate_start);
      r.locate_ns = locate_secs * 1e9 / static_cast<double>(probes.size());
      if (found != probes.size()) {
        std::fprintf(stderr, "locate lost users: %zu/%zu\n", found,
                     probes.size());
        std::exit(1);
      }

      // Routing cost a LocateRequest pays to reach the owning region.
      std::vector<Point> targets;
      targets.reserve(kHopTargets);
      for (std::size_t i = 0; i < kHopTargets; ++i) {
        const UserId u{static_cast<std::uint32_t>(
            sample_rng.uniform_index(user_count) + 1)};
        targets.push_back(dir.locate(u)->position);
      }
      Rng hop_rng(seed + 2);
      const Summary hops =
          metrics::target_hop_summary(sim.partition(), hop_rng, targets);
      r.locate_hops_mean = hops.mean;
      r.locate_hops_max = hops.max;
    }
  }
  return r;
}

}  // namespace

int main() {
  const std::vector<std::size_t> populations =
      bench::pick_populations({10'000, 30'000, 100'000});
  const std::size_t host_cores =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());

  std::printf("Location updates: %zu-node engine grid, %.0f virtual seconds "
              "of motion per point (host cores: %zu)\n",
              kNodes, kVirtualSeconds, host_cores);
  auto csv = bench::csv_for("location_updates");
  if (csv) {
    csv->header({"users", "updates", "shards", "threads", "updates_per_sec",
                 "locate_ns", "locate_hops_mean", "locate_hops_max",
                 "handoffs"});
  }

  std::vector<RunResult> results;
  std::printf("%9s %12s %13s %13s %16s %7s %8s %11s %12s %9s\n", "users",
              "updates", "serial/sec", "batched/sec", "sharded/sec", "shards",
              "threads", "locate ns", "locate hops", "handoffs");
  for (const std::size_t users : populations) {
    const RunResult r = measure(users, 4242);
    results.push_back(r);
    std::printf(
        "%9zu %12llu %13.0f %13.0f %16.0f %7zu %8zu %11.1f %12.2f %9llu\n",
        r.users, static_cast<unsigned long long>(r.updates), r.updates_per_sec,
        r.updates_per_sec_k1, r.updates_per_sec_sharded, r.shards, r.threads,
        r.locate_ns, r.locate_hops_mean,
        static_cast<unsigned long long>(r.handoffs));
    for (const CurvePoint& pt : r.curve) {
      std::printf("          shards=%-3zu threads=%-3zu %16.0f updates/sec\n",
                  pt.shards, pt.threads, pt.updates_per_sec);
      if (csv) {
        csv->row(r.users, r.updates, pt.shards, pt.threads, pt.updates_per_sec,
                 r.locate_ns, r.locate_hops_mean, r.locate_hops_max,
                 r.handoffs);
      }
    }
  }

  if (const char* path = std::getenv("GEOGRID_JSON_OUT")) {
    std::FILE* f = std::fopen(path, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", path);
      return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"location_updates\",\n"
                    "  \"nodes\": %zu,\n  \"virtual_seconds\": %.0f,\n"
                    "  \"host_cores\": %zu,\n"
                    "  \"points\": [\n",
                 kNodes, kVirtualSeconds, host_cores);
    for (std::size_t i = 0; i < results.size(); ++i) {
      const RunResult& r = results[i];
      std::fprintf(
          f,
          "    {\"users\": %zu, \"updates\": %llu, "
          "\"updates_per_sec\": %.0f, \"updates_per_sec_k1\": %.0f, "
          "\"updates_per_sec_sharded\": %.0f, \"shards\": %zu, "
          "\"threads\": %zu, \"locate_ns\": %.1f, "
          "\"locate_hops_mean\": %.3f, \"locate_hops_max\": %.0f, "
          "\"handoffs\": %llu,\n     \"thread_curve\": [",
          r.users, static_cast<unsigned long long>(r.updates),
          r.updates_per_sec, r.updates_per_sec_k1, r.updates_per_sec_sharded,
          r.shards, r.threads, r.locate_ns, r.locate_hops_mean,
          r.locate_hops_max, static_cast<unsigned long long>(r.handoffs));
      for (std::size_t c = 0; c < r.curve.size(); ++c) {
        const CurvePoint& pt = r.curve[c];
        std::fprintf(f, "%s{\"threads\": %zu, \"shards\": %zu, "
                        "\"updates_per_sec\": %.0f}",
                     c == 0 ? "" : ", ", pt.threads, pt.shards,
                     pt.updates_per_sec);
      }
      std::fprintf(f, "]}%s\n", i + 1 < results.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("baseline written to %s\n", path);
  }
  return 0;
}
