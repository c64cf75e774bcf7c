// The three workloads and their seeded input generator.
//
// A workload is a population placement, an optional standing subscription
// set, and a sequence of rounds.  Every input is a pure function of the
// seed, so the served run and the in-process replays regenerate identical
// rounds from their own Generator instead of storing them.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "common/geometry.h"
#include "common/ids.h"
#include "common/rng.h"
#include "core/engine.h"
#include "mobility/location_store.h"
#include "mobility/query_engine.h"
#include "pubsub/subscription_index.h"

namespace servebench {

using namespace geogrid;

enum class Kind : std::uint8_t { kReportIngest, kHotspotQueries, kGeofencePush };

struct Spec {
  Kind kind = Kind::kReportIngest;
  const char* name = "";
  std::size_t subscriptions = 0;
  std::size_t reports = 0;       ///< reports per update sub-round
  double step_miles = 0.0;       ///< max per-axis step of one report
  std::size_t update_every = 1;  ///< rounds per update sub-round
  std::size_t queries = 0;       ///< queries per round
  std::size_t updaters = 1;      ///< updater connections, taking turns
  std::size_t warmup_rounds = 0;
  /// Sizes a run: timed rounds = --seconds x this, the round rate measured
  /// on a 4-core x86 VM when the benchmark was written.  Fixed, not
  /// measured per run, so a seed always means the same work.
  double rounds_per_second = 0.0;
};

/// The workload registry; null when `name` is unknown.
const Spec* find_spec(std::string_view name);
std::vector<const Spec*> all_specs();

/// Population of every workload.
inline constexpr std::size_t kUsers = 100'000;
/// Users per population-load batch (each fenced, one ingest flush each).
inline constexpr std::size_t kLoadBatch = 2048;

/// One standing subscription as the subscriber registers it.
struct SubOrder {
  std::uint64_t sub_id = 0;
  pubsub::SubKind kind = pubsub::SubKind::kRange;
  Rect area{};
  UserId friend_user{};  ///< kFriend only
};

/// Everything the generator sends in one round, in send order: the
/// update sub-round (reports then the updater's fence), the query batch,
/// then the subscriber's fence.
struct Round {
  std::uint64_t number = 0;  ///< 1-based over warm-up and timed rounds
  std::size_t updater = 0;   ///< connection carrying the report batch
  std::vector<mobility::LocationRecord> reports;  ///< empty: no sub-round
  UserId fence{};
  std::vector<mobility::Query> queries;
  UserId sub_fence{};  ///< kGeofencePush only
};

class Generator {
 public:
  Generator(const Spec& spec, std::uint64_t seed, core::GridSimulation& sim);

  /// Initial placement: 30% uniform, 70% hot-spot weighted; seq 1.
  const std::vector<mobility::LocationRecord>& population() const noexcept {
    return initial_;
  }
  /// The standing subscription set (empty except kGeofencePush).
  std::vector<SubOrder> subscriptions() const;

  /// Fills the next round, reusing `out`'s buffers.
  void next_round(Round& out);

  /// Store cell size for the directories, as bench_serve sizes it.
  double cell_size() const noexcept;

 private:
  UserId random_user();
  Rect range_rect();

  const Spec& spec_;
  std::uint64_t seed_;
  core::GridSimulation& sim_;
  Rect plane_;
  Rng rng_;
  std::vector<mobility::LocationRecord> initial_;
  std::vector<Point> positions_;
  std::vector<std::uint64_t> seqs_;
  std::uint64_t rounds_ = 0;
};

}  // namespace servebench
