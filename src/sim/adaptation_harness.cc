#include "sim/adaptation_harness.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <numbers>
#include <tuple>
#include <utility>

#include "dualpeer/dual_ops.h"
#include "net/codec.h"

namespace geogrid::sim {

namespace {

using Clock = std::chrono::steady_clock;

double elapsed_us(Clock::time_point since) {
  return std::chrono::duration<double, std::micro>(Clock::now() - since)
      .count();
}

/// Random-walk step (miles/tick) of a reporting user; a kHotspotJumpRate
/// share of reports teleports to a hot-spot-weighted point instead,
/// keeping hot regions populated.
constexpr double kMoveStep = 1.5;
constexpr double kHotspotJumpRate = 0.15;
/// k of every k-nearest query.
constexpr std::uint32_t kNearestK = 8;
/// Migration retry budget per event; the last pass always runs without the
/// dropping filter so the migration is guaranteed to complete.
constexpr std::size_t kMaxMigrationPasses = 6;

double reflect(double v, double lo, double hi) {
  while (v < lo || v > hi) {
    if (v < lo) v = lo + (lo - v);
    if (v > hi) v = hi - (v - hi);
  }
  return v;
}

/// Canonical bytes of a result batch with every record list re-sorted by
/// user id.  Range partials merge in ascending *region-id* order, and the
/// adapted and reference partitions number regions differently, so raw
/// result bytes differ even when the answers agree; user order is the
/// partition-independent canonical form.  (Locate and k-nearest are
/// already partition-independent, but sorting them too keeps the
/// comparison uniform.)
std::vector<std::byte> canonical_bytes(
    std::vector<mobility::QueryResult> results) {
  for (mobility::QueryResult& r : results) {
    std::sort(r.records.begin(), r.records.end(),
              [](const mobility::LocationRecord& a,
                 const mobility::LocationRecord& b) { return a.user < b.user; });
  }
  net::Writer w;
  mobility::QueryEngine::serialize(w, results);
  return w.bytes();
}

}  // namespace

AdaptationHarness::AdaptationHarness(overlay::Partition& partition,
                                     workload::HotSpotField& field,
                                     Options options)
    : options_(std::move(options)),
      live_partition_(partition),
      ref_partition_(partition),
      field_(field),
      injector_(FaultInjector::Options{options_.fault, options_.seed}),
      subs_(field.plane()) {
  std::sort(options_.event_ticks.begin(), options_.event_ticks.end());

  mobility::ShardedDirectory::Options live_opts;
  live_opts.shards = options_.ingest_shards;
  live_opts.track_deltas = true;
  live_dir_ = std::make_unique<mobility::ShardedDirectory>(live_partition_,
                                                           live_opts);
  mobility::ShardedDirectory::Options ref_opts;
  ref_opts.shards = 1;
  ref_opts.track_deltas = true;
  ref_dir_ =
      std::make_unique<mobility::ShardedDirectory>(ref_partition_, ref_opts);

  live_queries_ = std::make_unique<mobility::QueryEngine>(
      *live_dir_, mobility::QueryEngine::Options{options_.query_threads});
  ref_queries_ = std::make_unique<mobility::QueryEngine>(
      *ref_dir_, mobility::QueryEngine::Options{1});

  live_notify_ = std::make_unique<pubsub::NotificationEngine>(
      *live_dir_, subs_,
      pubsub::NotificationEngine::Options{.threads = options_.notify_threads});
  ref_notify_ = std::make_unique<pubsub::NotificationEngine>(
      *ref_dir_, subs_, pubsub::NotificationEngine::Options{.threads = 1});

  driver_ = std::make_unique<loadbalance::AdaptationDriver>(
      live_partition_,
      [this](RegionId rid) {
        return field_.region_load(live_partition_.region(rid).rect);
      },
      options_.planner);

  // Seed the population: deterministic starting positions biased toward
  // the hot spots, per-user seq counters starting at 0 (first report = 1).
  Rng place_rng(options_.seed ^ 0x5eed91aceULL);
  positions_.reserve(options_.users);
  for (std::size_t i = 0; i < options_.users; ++i) {
    positions_.push_back(place_rng.chance(0.5)
                             ? field_.sample_weighted_point(place_rng)
                             : Point{place_rng.uniform(field_.plane().x,
                                                       field_.plane().right()),
                                     place_rng.uniform(field_.plane().y,
                                                       field_.plane().top())});
  }
  seqs_.assign(options_.users, 0);

  // Standing subscriptions, one shared index: the live and reference
  // engines must emit byte-identical streams against it.
  Rng sub_rng(options_.seed ^ 0x50b5c71beULL);
  for (std::size_t i = 0; i < options_.subscriptions; ++i) {
    net::Subscribe msg;
    msg.sub_id = i + 1;
    if (i % 3 == 2) {
      const UserId target{
          static_cast<std::uint32_t>(sub_rng.uniform_index(options_.users) +
                                     1)};
      subs_.subscribe_friend(msg, target);
      continue;
    }
    const Point c = field_.sample_weighted_point(sub_rng);
    const double w = sub_rng.uniform(1.0, 6.0);
    const double h = sub_rng.uniform(1.0, 6.0);
    const Rect plane = field_.plane();
    msg.area = Rect{std::clamp(c.x - w / 2.0, plane.x, plane.right() - w),
                    std::clamp(c.y - h / 2.0, plane.y, plane.top() - h), w, h};
    subs_.subscribe(msg, i % 3 == 0 ? pubsub::SubKind::kGeofence
                                    : pubsub::SubKind::kRange);
  }
}

AdaptationHarness::Phase AdaptationHarness::phase_of(
    std::size_t tick) const noexcept {
  if (options_.event_ticks.empty()) return Phase::kBefore;
  if (tick < options_.event_ticks.front()) return Phase::kBefore;
  for (const std::size_t e : options_.event_ticks) {
    if (tick >= e && tick <= e + options_.during_window) return Phase::kDuring;
  }
  return Phase::kAfter;
}

std::vector<mobility::LocationRecord> AdaptationHarness::make_batch(
    std::size_t tick, Rng& rng) {
  std::vector<mobility::LocationRecord> batch;
  batch.reserve(options_.users);
  const Rect plane = field_.plane();
  for (std::size_t i = 0; i < options_.users; ++i) {
    const bool reports = options_.report_rate >= 1.0 ||
                         rng.chance(options_.report_rate);
    if (!reports) continue;
    Point& pos = positions_[i];
    if (rng.chance(kHotspotJumpRate)) {
      pos = field_.sample_weighted_point(rng);
    } else {
      const double angle = rng.uniform(0.0, 2.0 * std::numbers::pi);
      const double step = rng.uniform(0.0, kMoveStep);
      pos.x = reflect(pos.x + step * std::cos(angle), plane.x, plane.right());
      pos.y = reflect(pos.y + step * std::sin(angle), plane.y, plane.top());
    }
    batch.push_back(mobility::LocationRecord{
        UserId{static_cast<std::uint32_t>(i + 1)}, pos, ++seqs_[i],
        static_cast<double>(tick)});
  }
  return batch;
}

std::vector<mobility::Query> AdaptationHarness::make_queries(Rng& rng) {
  std::vector<mobility::Query> queries;
  queries.reserve(options_.queries_per_tick);
  const Rect plane = field_.plane();
  for (std::size_t i = 0; i < options_.queries_per_tick; ++i) {
    switch (i % 3) {
      case 0: {
        queries.push_back(mobility::Query::locate(UserId{
            static_cast<std::uint32_t>(rng.uniform_index(options_.users) +
                                       1)}));
        break;
      }
      case 1: {
        const Point c = field_.sample_weighted_point(rng);
        const double w = rng.uniform(1.0, 8.0);
        const double h = rng.uniform(1.0, 8.0);
        queries.push_back(mobility::Query::range(
            Rect{std::clamp(c.x - w / 2.0, plane.x, plane.right() - w),
                 std::clamp(c.y - h / 2.0, plane.y, plane.top() - h), w, h}));
        break;
      }
      default: {
        queries.push_back(mobility::Query::nearest(
            field_.sample_weighted_point(rng), kNearestK));
        break;
      }
    }
  }
  return queries;
}

void AdaptationHarness::ingest_live(
    std::span<const mobility::LocationRecord> batch, PhaseLatency& lat) {
  if (batch.empty()) return;
  const std::size_t chunks =
      std::max<std::size_t>(1, std::min(options_.sub_batches, batch.size()));
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t lo = batch.size() * c / chunks;
    const std::size_t hi = batch.size() * (c + 1) / chunks;
    if (lo == hi) continue;
    const auto start = Clock::now();
    live_dir_->apply_updates(batch.subspan(lo, hi - lo));
    const double us = elapsed_us(start);
    report_.update_secs += us * 1e-6;
    lat.update.record_micros(us / static_cast<double>(hi - lo));
  }
}

void AdaptationHarness::run_queries(std::span<const mobility::Query> queries,
                                    PhaseLatency& lat) {
  if (queries.empty()) return;
  std::vector<mobility::QueryResult> live_results;
  live_results.reserve(queries.size());
  const std::size_t chunks =
      std::max<std::size_t>(1, std::min(options_.sub_batches, queries.size()));
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t lo = queries.size() * c / chunks;
    const std::size_t hi = queries.size() * (c + 1) / chunks;
    if (lo == hi) continue;
    const auto start = Clock::now();
    auto part = live_queries_->run(queries.subspan(lo, hi - lo));
    const double us = elapsed_us(start);
    report_.query_secs += us * 1e-6;
    lat.query.record_micros(us / static_cast<double>(hi - lo));
    for (auto& r : part) live_results.push_back(std::move(r));
  }
  report_.queries_run += queries.size();

  const auto ref_results = ref_queries_->run(queries);
  if (canonical_bytes(std::move(live_results)) !=
      canonical_bytes(ref_results)) {
    ++report_.query_divergences;
  }
}

void AdaptationHarness::drain_notifications() {
  const auto live_batch = live_notify_->drain();
  const auto ref_batch = ref_notify_->drain();
  report_.notifications += live_batch.size();

  net::Writer lw, rw;
  pubsub::NotificationEngine::serialize(lw, live_batch);
  pubsub::NotificationEngine::serialize(rw, ref_batch);
  if (lw.bytes() != rw.bytes()) ++report_.notify_divergences;

  // Duplicate delivery check within the drained batch: the same
  // (subscription, user, event) must not be emitted twice in one epoch
  // window, no matter how adaptation epochs interleave with movement.
  std::vector<std::tuple<std::uint64_t, std::uint32_t, std::uint8_t>> keys;
  keys.reserve(live_batch.size());
  for (const pubsub::Notification& n : live_batch) {
    keys.emplace_back(n.sub_id, n.user.value,
                      static_cast<std::uint8_t>(n.event));
  }
  std::sort(keys.begin(), keys.end());
  report_.duplicate_notifications += static_cast<std::uint64_t>(
      keys.end() - std::unique(keys.begin(), keys.end()));
}

void AdaptationHarness::do_failover() {
  if (live_partition_.region_count() <= 1) return;
  // Deterministic victim: the hottest region, with a repair-path
  // preference and ties broken on region id.  The region-kill fault hunts
  // a solo primary — its death retires the region (repair by merge), so
  // the store must migrate; the plain failover event prefers a dual-peer
  // region, exercising secondary takeover.
  const bool prefer_solo = injector_.kills_region();
  std::vector<std::pair<RegionId, double>> candidates;
  candidates.reserve(live_partition_.region_count());
  for (const auto& [id, region] : live_partition_.regions()) {
    const bool preferred = region.secondary.has_value() != prefer_solo;
    candidates.emplace_back(
        id, field_.region_load(region.rect) + (preferred ? 1e9 : 0.0));
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const auto& a, const auto& b) {
              if (a.second != b.second) return a.second > b.second;
              return a.first.value < b.first.value;
            });
  const NodeId victim = live_partition_.region(candidates.front().first).primary;
  dualpeer::dual_fail(live_partition_, victim);
  ++report_.failovers;
  if (injector_.kills_region()) injector_.count_region_kill();
}

void AdaptationHarness::migrate_with_retries() {
  for (std::size_t pass = 0; pass < kMaxMigrationPasses; ++pass) {
    mobility::ShardedDirectory::MigrationFilter filter;
    if (injector_.drops_transfers(pass, kMaxMigrationPasses)) {
      filter = [this](UserId, RegionId, RegionId) {
        return !injector_.drop_transfer();
      };
    }
    const auto pass_report = live_dir_->migrate_regions(filter);
    ++report_.migration_passes;
    if (pass > 0) ++report_.migration_retries;
    report_.migrated_records += pass_report.moved;
    report_.dropped_transfers += pass_report.dropped;
    report_.stores_retired += pass_report.stores_retired;
    if (pass_report.complete()) break;
  }
}

void AdaptationHarness::verify_migration() {
  // Snapshot-consistency: the migrated directory must be byte-identical to
  // one rebuilt from scratch on the adapted partition from the very same
  // records.  A torn migration — a record left in a store whose region no
  // longer covers it, a duplicate surviving in two stores, or a memo entry
  // disagreeing with the stores — cannot reproduce the rebuilt bytes.
  std::vector<mobility::LocationRecord> records;
  records.reserve(options_.users);
  for (std::size_t i = 0; i < options_.users; ++i) {
    if (const auto rec =
            live_dir_->locate(UserId{static_cast<std::uint32_t>(i + 1)})) {
      records.push_back(*rec);
    }
  }
  mobility::ShardedDirectory::Options opts;
  opts.shards = 1;
  mobility::ShardedDirectory rebuilt(live_partition_, opts);
  rebuilt.apply_updates(records);

  net::Writer migrated, reference;
  live_dir_->serialize(migrated);
  rebuilt.serialize(reference);
  if (migrated.bytes() != reference.bytes()) {
    ++report_.migration_verify_failures;
  }
}

void AdaptationHarness::adaptation_event() {
  const auto start = Clock::now();
  const std::uint64_t geometry_before = live_partition_.geometry_version();

  if (options_.failover || injector_.kills_region()) do_failover();
  if (options_.use_driver) {
    for (std::size_t i = 0; i < options_.ops_per_event; ++i) {
      const auto plan = driver_->step();
      if (!plan.has_value()) break;
      ++report_.adaptations_executed;
      ++report_.per_mechanism[static_cast<std::size_t>(plan->mechanism)];
    }
  }
  report_.geometry_changes +=
      live_partition_.geometry_version() - geometry_before;

  migrate_with_retries();
  report_.adaptation_stall_us +=
      static_cast<std::uint64_t>(elapsed_us(start));
  verify_migration();
}

void AdaptationHarness::check_parity() {
  for (std::size_t i = 0; i < options_.users; ++i) {
    const UserId user{static_cast<std::uint32_t>(i + 1)};
    const auto live = live_dir_->locate(user);
    const auto ref = ref_dir_->locate(user);
    if (ref.has_value() && !live.has_value()) {
      ++report_.lost_users;
    } else if (live.has_value() != ref.has_value() ||
               (live.has_value() && !(*live == *ref))) {
      ++report_.record_parity_failures;
    }
  }
}

AdaptationHarness::Report AdaptationHarness::run() {
  for (std::size_t tick = 0; tick < options_.ticks; ++tick) {
    field_.advance(options_.seed, tick);

    Rng tick_rng(options_.seed ^
                 (0xace1u + tick * 0x9e3779b97f4a7c15ULL));
    auto batch = make_batch(tick, tick_rng);
    report_.updates_sent += batch.size();

    PhaseLatency* lat = nullptr;
    switch (phase_of(tick)) {
      case Phase::kBefore: lat = &report_.before; break;
      case Phase::kDuring: lat = &report_.during; break;
      case Phase::kAfter: lat = &report_.after; break;
    }

    const bool event =
        std::find(options_.event_ticks.begin(), options_.event_ticks.end(),
                  tick) != options_.event_ticks.end();
    const std::size_t tail =
        event ? injector_.deferred_tail(batch.size()) : 0;
    const std::span<const mobility::LocationRecord> all(batch);
    ingest_live(all.first(batch.size() - tail), *lat);

    if (event) {
      adaptation_event();
      const auto deferred = all.subspan(batch.size() - tail);
      if (!deferred.empty()) {
        // Late delivery after the adaptation window, then the retransmit
        // of the same records — the seq guard must reject every replay.
        report_.delayed_updates += deferred.size();
        ingest_live(deferred, *lat);
        const std::uint64_t stale_before =
            live_dir_->counters().updates_stale;
        injector_.count_replays(deferred.size());
        report_.replayed_updates += deferred.size();
        ingest_live(deferred, *lat);
        report_.replays_rejected +=
            live_dir_->counters().updates_stale - stale_before;
      }
    }

    // The reference sees the whole tick's batch at once: no fault, no
    // adaptation, original order.
    ref_dir_->apply_updates(batch);

    const auto queries = make_queries(tick_rng);
    run_queries(queries, *lat);
    drain_notifications();

    if (options_.deep_parity_every_tick || event ||
        tick + 1 == options_.ticks) {
      check_parity();
    }
  }
  report_.notify_rescans = live_notify_->counters().full_rescans;
  return report_;
}

}  // namespace geogrid::sim
