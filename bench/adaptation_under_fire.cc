// Latency during adaptation: the live mobile-user path (sharded ingest,
// batched queries, standing subscriptions) measured while the overlay
// splits, merges, switches owners and fails over underneath it.
//
// Each population point drives sim::AdaptationHarness over a
// dual-peer-adaptive engine grid: migrating hot spots steer the reporting
// population tick by tick, and at the scheduled event ticks a dual-peer
// failover plus the full load-balance mechanism set fire against the live
// partition, followed by ShardedDirectory::migrate_regions under the
// dropped-transfer fault (each pass's vetoed transfers stay behind and are
// retried, so adaptation-window latency includes the retry cost a lossy
// transfer channel causes).
//
// The headline numbers are the update and query latency percentiles split
// into before / during / after adaptation windows — what a mobile user
// experiences while the overlay reshapes — plus overall ingest and query
// throughput.  Correctness is enforced, not assumed: the harness byte-
// compares canonicalized query results and notification streams against a
// never-adapted reference directory every tick and byte-verifies each
// migration against a rebuilt-from-scratch directory; any divergence,
// lost user or duplicate notification aborts the bench.
//
// Populations sweep 10k-100k users by default; GEOGRID_BENCH_LARGE=1 adds
// the 1M point, GEOGRID_BENCH_POPS picks the sweep explicitly, and
// --smoke runs the single 10k CI point (gated by check_bench_smoke.py on
// updates_per_sec / queries_per_sec and the required
// p99_query_us_during_adaptation series).  GEOGRID_JSON_OUT=<path> writes
// the machine-readable baseline (BENCH_adaptation.json).
#include <cstdio>
#include <cstring>
#include <vector>

#include "bench_util.h"
#include "core/engine.h"
#include "sim/adaptation_harness.h"

using namespace geogrid;

namespace {

constexpr std::size_t kNodes = 600;
constexpr std::uint64_t kSeed = 4242;

sim::AdaptationHarness::Options harness_options(std::size_t users) {
  sim::AdaptationHarness::Options ho;
  ho.users = users;
  // One schedule for smoke and full runs: the CI gate compares the smoke
  // point against the committed baseline, so the workload must be
  // identical and only machine noise may differ.
  ho.ticks = 16;
  ho.event_ticks = {5, 9};
  ho.during_window = 2;
  ho.queries_per_tick = 256;
  ho.subscriptions = 512;
  ho.sub_batches = 16;  // latency sampling granularity per tick
  ho.report_rate = 0.9;
  ho.use_driver = true;
  ho.failover = true;  // every event also crashes the hottest primary
  ho.ops_per_event = 6;
  ho.fault = sim::FaultKind::kDroppedTransfer;
  ho.deep_parity_every_tick = false;  // events + final tick at bench scale
  ho.seed = kSeed;
  ho.ingest_shards = bench::kHeadline;
  ho.query_threads = 0;   // hardware
  ho.notify_threads = 0;  // hardware
  return ho;
}

void measure(bench::Report& report, std::size_t users) {
  core::SimulationOptions opt;
  opt.mode = core::GridMode::kDualPeerAdaptive;
  opt.node_count = kNodes;
  opt.seed = kSeed;
  opt.field.cells_x = 128;
  opt.field.cells_y = 128;
  core::GridSimulation sim_grid(opt);

  sim::AdaptationHarness harness(sim_grid.partition(), sim_grid.field(),
                                 harness_options(users));
  const sim::AdaptationHarness::Report rep = harness.run();

  if (!rep.clean()) {
    std::fprintf(stderr,
                 "lost=%llu parity=%llu query=%llu notify=%llu dup=%llu "
                 "migration=%llu\n",
                 (unsigned long long)rep.lost_users,
                 (unsigned long long)rep.record_parity_failures,
                 (unsigned long long)rep.query_divergences,
                 (unsigned long long)rep.notify_divergences,
                 (unsigned long long)rep.duplicate_notifications,
                 (unsigned long long)rep.migration_verify_failures);
    bench::fail("adapted run diverged from the never-adapted reference");
  }
  if (rep.failovers == 0) bench::fail("no failover executed");
  if (rep.migrated_records == 0) bench::fail("no records migrated");

  const auto& before = rep.before;
  const auto& during = rep.during;
  const auto& after = rep.after;
  report.add({
      {"users", users},
      {"updates_per_sec",
       static_cast<double>(rep.updates_sent) / rep.update_secs, 0},
      {"queries_per_sec",
       static_cast<double>(rep.queries_run) / rep.query_secs, 0},
      {"p99_update_us_before_adaptation",
       before.update.percentile_micros(99), 2},
      {"p99_update_us_during_adaptation",
       during.update.percentile_micros(99), 2},
      {"p99_update_us_after_adaptation", after.update.percentile_micros(99),
       2},
      {"p999_update_us_before_adaptation",
       before.update.percentile_micros(99.9), 2},
      {"p999_update_us_during_adaptation",
       during.update.percentile_micros(99.9), 2},
      {"p999_update_us_after_adaptation",
       after.update.percentile_micros(99.9), 2},
      {"p99_query_us_before_adaptation", before.query.percentile_micros(99),
       2},
      {"p99_query_us_during_adaptation", during.query.percentile_micros(99),
       2},
      {"p99_query_us_after_adaptation", after.query.percentile_micros(99),
       2},
      {"p999_query_us_before_adaptation",
       before.query.percentile_micros(99.9), 2},
      {"p999_query_us_during_adaptation",
       during.query.percentile_micros(99.9), 2},
      {"p999_query_us_after_adaptation", after.query.percentile_micros(99.9),
       2},
      {"adaptations", rep.adaptations_executed},
      {"failovers", rep.failovers},
      {"geometry_changes", rep.geometry_changes},
      {"migrated_records", rep.migrated_records},
      {"dropped_transfers", rep.dropped_transfers},
      {"migration_retries", rep.migration_retries},
      {"replayed_updates", rep.replayed_updates},
      {"replays_rejected", rep.replays_rejected},
      {"notifications", rep.notifications},
      {"adaptation_stall_us", rep.adaptation_stall_us},
  });
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  bench::Report report(
      "adaptation_under_fire",
      "Adaptation under fire: adaptive engine grid, failover + all "
      "mechanisms + the fault at each event",
      {{"nodes", kNodes}, {"fault", "dropped-transfer"}});
  for (const std::size_t users :
       smoke ? std::vector<std::size_t>{10'000}
             : bench::pick_populations({10'000, 100'000})) {
    measure(report, users);
  }
  return report.finish();
}
