// Mobile-user ingestion throughput: sustained location updates/sec and
// locate cost versus user population, over the engine-mode fast path.
//
// Each population runs the full motion loop for 60 virtual seconds: every
// virtual second the seeded random-waypoint/hot-spot walk advances and every
// user reports its position, so the numbers include region lookup, handoff
// eviction and spatial-index maintenance — not just hash-map inserts.
// mobility::ShardedDirectory ingests the identical trace once per entry of
// the shard sweep (1, 2, 4, 8, 16), one apply_updates call per tick.  K = 1
// is the serial configuration (updates_per_sec_k1); K = 8 is the headline
// parallel configuration (updates_per_sec_sharded), recorded together with
// the real thread count it ran and the host's core count — never a
// silently-collapsed default.
//
// Every K's applied/stale/handoff counters must equal K = 1's, and its
// canonically serialized directory must match K = 1's bytes exactly; any
// mismatch aborts the bench, so the throughput numbers can only come from
// equivalent work.  Each sampled locate must also sit in the region the
// partition's own cold locate assigns to its position.
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
#include <vector>

#include "bench_util.h"
#include "common/stats.h"
#include "core/engine.h"
#include "metrics/collector.h"
#include "mobility/motion.h"
#include "mobility/sharded_directory.h"
#include "net/codec.h"

using namespace geogrid;

namespace {

constexpr double kVirtualSeconds = 60.0;
constexpr std::size_t kNodes = 1000;
constexpr std::size_t kLocateSamples = 100'000;
constexpr std::size_t kHopTargets = 2'000;
/// Named by each point (its headline run) and by each thread-curve entry.
constexpr char kShards[] = "shards";

/// One apply_updates call per tick, with the motion stepping inside the
/// timed loop.
double ingest_trace(core::GridSimulation& sim, std::size_t user_count,
                    std::uint64_t seed, mobility::ShardedDirectory& dir) {
  mobility::UserPopulation::Options mopt;
  mopt.model = mobility::MotionModel::kHotspotAttracted;
  mobility::UserPopulation pop(user_count, mopt, &sim.field(),
                               Rng(seed * 31 + 7));
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
  return bench::seconds_since(start);
}

std::vector<std::byte> canonical_bytes(const mobility::ShardedDirectory& dir) {
  net::Writer w;
  dir.serialize(w);
  return std::move(w).take();
}

void measure(bench::Report& report, std::size_t user_count,
             std::uint64_t seed) {
  core::SimulationOptions opt;
  opt.mode = core::GridMode::kDualPeer;
  opt.node_count = kNodes;
  opt.seed = seed;
  core::GridSimulation sim(opt);

  mobility::ShardedDirectory::Counters k1;
  std::vector<std::byte> k1_bytes;
  double k1_rate = 0.0;
  double headline_rate = 0.0;
  std::size_t headline_shards = 0;
  double locate_ns = 0.0;
  Summary hops;
  std::vector<bench::CurveEntry> curve;
  for (const std::size_t k : bench::kSweep) {
    mobility::ShardedDirectory dir(sim.partition(), {.shards = k});
    const double secs = ingest_trace(sim, user_count, seed, dir);
    const auto& c = dir.counters();
    if (k == 1) {
      k1 = c;
      k1_bytes = canonical_bytes(dir);
    } else if (c.updates_applied != k1.updates_applied ||
               c.updates_stale != k1.updates_stale ||
               c.handoffs != k1.handoffs) {
      bench::fail("applied/stale/handoff counters differ from K=1");
    } else if (canonical_bytes(dir) != k1_bytes) {
      bench::fail("canonical directory bytes differ from K=1");
    }
    const double rate =
        static_cast<double>(k1.updates_applied + k1.updates_stale) / secs;
    curve.push_back({dir.shard_count(),
                     {{kShards, dir.shard_count()},
                      {"updates_per_sec", rate, 0}}});
    if (k == 1) k1_rate = rate;
    if (k != bench::kHeadline) continue;
    headline_rate = rate;
    headline_shards = dir.shard_count();

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
    locate_ns = bench::seconds_since(locate_start) * 1e9 /
                static_cast<double>(probes.size());
    if (found != probes.size()) bench::fail("locate lost users");
    for (const UserId u : probes) {
      if (dir.region_of(u) != sim.partition().locate(dir.locate(u)->position)) {
        bench::fail("region_of differs from the partition's locate");
      }
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
    hops = metrics::target_hop_summary(sim.partition(), hop_rng, targets);
  }
  report.add({{"users", user_count},
              {"updates", k1.updates_applied + k1.updates_stale},
              {"updates_per_sec_k1", k1_rate, 0},
              {"updates_per_sec_sharded", headline_rate, 0},
              {kShards, headline_shards},
              {"threads", headline_shards},
              {"locate_ns", locate_ns, 1},
              {"locate_hops_mean", hops.mean, 3},
              {"locate_hops_max", hops.max, 0},
              {"handoffs", k1.handoffs}},
             std::move(curve));
}

}  // namespace

int main() {
  bench::Report report(
      "location_updates",
      "Location updates: engine grid, seeded motion per point, ingested "
      "once per shard count",
      {{"nodes", kNodes},
       {"virtual_seconds", kVirtualSeconds, 0},
       {"host_cores", bench::host_cores()}});
  for (const std::size_t users :
       bench::pick_populations({10'000, 30'000, 100'000})) {
    measure(report, users, 4242);
  }
  return report.finish();
}
