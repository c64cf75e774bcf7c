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
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "bench_util.h"
#include "core/engine.h"
#include "sim/adaptation_harness.h"

using namespace geogrid;

namespace {

constexpr std::size_t kNodes = 600;
constexpr std::uint64_t kSeed = 4242;

struct RunResult {
  std::size_t users = 0;
  sim::AdaptationHarness::Report report;
  double updates_per_sec = 0.0;
  double queries_per_sec = 0.0;
};

void fail(const char* what) {
  std::fprintf(stderr, "divergence abort: %s\n", what);
  std::exit(1);
}

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
  ho.ingest_shards = 8;
  ho.query_threads = 0;   // hardware
  ho.notify_threads = 0;  // hardware
  return ho;
}

RunResult measure(std::size_t users) {
  core::SimulationOptions opt;
  opt.mode = core::GridMode::kDualPeerAdaptive;
  opt.node_count = kNodes;
  opt.seed = kSeed;
  opt.field.cells_x = 128;
  opt.field.cells_y = 128;
  core::GridSimulation sim_grid(opt);

  sim::AdaptationHarness harness(sim_grid.partition(), sim_grid.field(),
                                 harness_options(users));
  RunResult r;
  r.users = users;
  r.report = harness.run();

  if (!r.report.clean()) {
    std::fprintf(stderr,
                 "lost=%llu parity=%llu query=%llu notify=%llu dup=%llu "
                 "migration=%llu\n",
                 (unsigned long long)r.report.lost_users,
                 (unsigned long long)r.report.record_parity_failures,
                 (unsigned long long)r.report.query_divergences,
                 (unsigned long long)r.report.notify_divergences,
                 (unsigned long long)r.report.duplicate_notifications,
                 (unsigned long long)r.report.migration_verify_failures);
    fail("adapted run diverged from the never-adapted reference");
  }
  if (r.report.failovers == 0) fail("no failover executed");
  if (r.report.migrated_records == 0) fail("no records migrated");

  r.updates_per_sec =
      static_cast<double>(r.report.updates_sent) / r.report.update_secs;
  r.queries_per_sec =
      static_cast<double>(r.report.queries_run) / r.report.query_secs;
  return r;
}

void print_phase(const char* label,
                 const sim::AdaptationHarness::PhaseLatency& lat) {
  std::printf("          %-7s update p99/p999 %8.1f/%8.1fus   "
              "query p99/p999 %8.1f/%8.1fus\n",
              label, lat.update.percentile_micros(99),
              lat.update.percentile_micros(99.9),
              lat.query.percentile_micros(99),
              lat.query.percentile_micros(99.9));
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  const std::vector<std::size_t> populations =
      smoke ? std::vector<std::size_t>{10'000}
            : bench::pick_populations({10'000, 100'000});

  std::printf("Adaptation under fire: %zu-node adaptive grid, failover + "
              "all mechanisms + dropped-transfer fault at each event\n",
              kNodes);
  auto csv = bench::csv_for("adaptation_under_fire");
  if (csv) {
    csv->header({"users", "updates_per_sec", "queries_per_sec",
                 "p99_update_us_before", "p99_update_us_during",
                 "p99_update_us_after", "p99_query_us_before",
                 "p99_query_us_during", "p99_query_us_after", "adaptations",
                 "failovers", "migrated_records", "dropped_transfers",
                 "migration_retries", "adaptation_stall_us"});
  }

  std::vector<RunResult> results;
  for (const std::size_t users : populations) {
    const RunResult r = measure(users);
    results.push_back(r);
    const auto& rep = r.report;
    std::printf("%9zu users: %10.0f updates/s %9.0f queries/s   "
                "%llu adaptations, %llu failovers, %llu migrated "
                "(%llu dropped, %llu retries), stall %.1fms\n",
                r.users, r.updates_per_sec, r.queries_per_sec,
                (unsigned long long)rep.adaptations_executed,
                (unsigned long long)rep.failovers,
                (unsigned long long)rep.migrated_records,
                (unsigned long long)rep.dropped_transfers,
                (unsigned long long)rep.migration_retries,
                static_cast<double>(rep.adaptation_stall_us) / 1000.0);
    print_phase("before", rep.before);
    print_phase("during", rep.during);
    print_phase("after", rep.after);
    std::printf("          replays %llu delivered late, %llu rejected by "
                "the seq guard; %llu notifications, streams byte-identical\n",
                (unsigned long long)rep.replayed_updates,
                (unsigned long long)rep.replays_rejected,
                (unsigned long long)rep.notifications);
    if (csv) {
      csv->row(r.users, r.updates_per_sec, r.queries_per_sec,
               rep.before.update.percentile_micros(99),
               rep.during.update.percentile_micros(99),
               rep.after.update.percentile_micros(99),
               rep.before.query.percentile_micros(99),
               rep.during.query.percentile_micros(99),
               rep.after.query.percentile_micros(99),
               rep.adaptations_executed, rep.failovers, rep.migrated_records,
               rep.dropped_transfers, rep.migration_retries,
               rep.adaptation_stall_us);
    }
  }
  std::printf("divergence aborts: 0 (query results, notification streams "
              "and migrated snapshots byte-verified)\n");

  if (const char* path = std::getenv("GEOGRID_JSON_OUT")) {
    std::FILE* f = std::fopen(path, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", path);
      return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"adaptation_under_fire\",\n"
                    "  \"nodes\": %zu,\n  \"fault\": \"dropped-transfer\",\n"
                    "  \"points\": [\n",
                 kNodes);
    for (std::size_t i = 0; i < results.size(); ++i) {
      const RunResult& r = results[i];
      const auto& rep = r.report;
      std::fprintf(
          f,
          "    {\"users\": %zu, "
          "\"updates_per_sec\": %.0f, \"queries_per_sec\": %.0f,\n"
          "     \"p99_update_us_before_adaptation\": %.2f, "
          "\"p99_update_us_during_adaptation\": %.2f, "
          "\"p99_update_us_after_adaptation\": %.2f,\n"
          "     \"p999_update_us_before_adaptation\": %.2f, "
          "\"p999_update_us_during_adaptation\": %.2f, "
          "\"p999_update_us_after_adaptation\": %.2f,\n"
          "     \"p99_query_us_before_adaptation\": %.2f, "
          "\"p99_query_us_during_adaptation\": %.2f, "
          "\"p99_query_us_after_adaptation\": %.2f,\n"
          "     \"p999_query_us_before_adaptation\": %.2f, "
          "\"p999_query_us_during_adaptation\": %.2f, "
          "\"p999_query_us_after_adaptation\": %.2f,\n"
          "     \"adaptations\": %llu, \"failovers\": %llu, "
          "\"geometry_changes\": %llu, \"migrated_records\": %llu, "
          "\"dropped_transfers\": %llu, \"migration_retries\": %llu,\n"
          "     \"replayed_updates\": %llu, \"replays_rejected\": %llu, "
          "\"notifications\": %llu, \"adaptation_stall_us\": %llu}%s\n",
          r.users, r.updates_per_sec, r.queries_per_sec,
          rep.before.update.percentile_micros(99),
          rep.during.update.percentile_micros(99),
          rep.after.update.percentile_micros(99),
          rep.before.update.percentile_micros(99.9),
          rep.during.update.percentile_micros(99.9),
          rep.after.update.percentile_micros(99.9),
          rep.before.query.percentile_micros(99),
          rep.during.query.percentile_micros(99),
          rep.after.query.percentile_micros(99),
          rep.before.query.percentile_micros(99.9),
          rep.during.query.percentile_micros(99.9),
          rep.after.query.percentile_micros(99.9),
          (unsigned long long)rep.adaptations_executed,
          (unsigned long long)rep.failovers,
          (unsigned long long)rep.geometry_changes,
          (unsigned long long)rep.migrated_records,
          (unsigned long long)rep.dropped_transfers,
          (unsigned long long)rep.migration_retries,
          (unsigned long long)rep.replayed_updates,
          (unsigned long long)rep.replays_rejected,
          (unsigned long long)rep.notifications,
          (unsigned long long)rep.adaptation_stall_us,
          i + 1 < results.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("baseline written to %s\n", path);
  }
  return 0;
}
