// Deterministic fault injection for the adaptation-under-fire harness.
//
// The harness drives live ingest and queries through partition adaptations
// (split, merge, seat moves, dual-peer failover).  Each of those windows
// has a failure mode the paper's protocol must absorb; FaultInjector
// produces the *decisions* for one such failure mode from a seeded Rng so
// every run is replayable bit-for-bit:
//
//   * kRegionKill      — the adapted region's primary crashes mid-window
//                        (dual_fail: secondary takeover or repair-by-merge).
//   * kDelayedHandoff  — a slice of the in-flight update batch is delivered
//                        only after the adaptation completes, then replayed
//                        a second time (the retransmit), so the seq guard
//                        must reject the duplicates.
//   * kDroppedTransfer — a fraction of region-migration transfer messages
//                        is vetoed per pass; the harness retries passes
//                        until the migration completes.
//
// The injector only decides; the harness applies the decisions.  Decision
// streams are consumed in deterministic order (migration transfers arrive
// user-sorted, batch tails are sized once per tick), so a (kind, seed)
// pair names one exact fault schedule regardless of shard/thread counts.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "common/ids.h"
#include "common/rng.h"

namespace geogrid::sim {

enum class FaultKind : std::uint8_t {
  kNone = 0,
  kRegionKill = 1,
  kDelayedHandoff = 2,
  kDroppedTransfer = 3,
};

inline constexpr std::size_t kFaultKindCount = 4;

std::string_view fault_name(FaultKind kind);

class FaultInjector {
 public:
  struct Options {
    FaultKind kind = FaultKind::kNone;
    std::uint64_t seed = 1;
  };

  /// P(one migration transfer is vetoed) per pass (kDroppedTransfer).
  static constexpr double kDropRate = 0.35;
  /// Fraction of a tick's update batch delivered late (kDelayedHandoff).
  static constexpr double kDelayFraction = 0.25;

  struct Counters {
    std::uint64_t transfers_dropped = 0;
    std::uint64_t updates_delayed = 0;
    std::uint64_t updates_replayed = 0;
    std::uint64_t regions_killed = 0;
  };

  explicit FaultInjector(Options options)
      : options_(options), rng_(options.seed ^ 0xfa01753c0de5eedULL) {}

  FaultKind kind() const noexcept { return options_.kind; }

  /// Whether migration passes before `max_passes - 1` should run under the
  /// dropping filter.  The final pass always runs clean so a bounded retry
  /// loop is guaranteed to finish the migration.
  bool drops_transfers(std::size_t pass,
                       std::size_t max_passes) const noexcept {
    return options_.kind == FaultKind::kDroppedTransfer &&
           pass + 1 < max_passes;
  }

  /// One transfer's fate this pass (called in user-sorted transfer order,
  /// so the stream is shard-count independent).  True = veto.
  bool drop_transfer() {
    const bool drop = rng_.chance(kDropRate);
    if (drop) ++counters_.transfers_dropped;
    return drop;
  }

  /// How many tail records of a `batch_size` update batch arrive only
  /// after the adaptation window (and are then replayed once more).
  std::size_t deferred_tail(std::size_t batch_size) {
    if (options_.kind != FaultKind::kDelayedHandoff || batch_size == 0) {
      return 0;
    }
    const auto tail = static_cast<std::size_t>(
        static_cast<double>(batch_size) * kDelayFraction);
    counters_.updates_delayed += tail;
    return tail;
  }

  bool kills_region() const noexcept {
    return options_.kind == FaultKind::kRegionKill;
  }

  void count_replays(std::size_t n) noexcept {
    counters_.updates_replayed += n;
  }
  void count_region_kill() noexcept { ++counters_.regions_killed; }

  const Counters& counters() const noexcept { return counters_; }

 private:
  Options options_;
  Rng rng_;
  Counters counters_;
};

}  // namespace geogrid::sim
