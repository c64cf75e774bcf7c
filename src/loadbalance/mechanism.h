// Load-balance adaptation vocabulary.
//
// The eight mechanisms of §2.4, in the paper's order of increasing cost.
// Local adaptations (a)-(e) act on the overloaded region and its immediate
// neighbors; remote adaptations (f)-(h) first run a TTL-guided search.  A
// Plan names the chosen mechanism and its operands so the engine executor,
// the protocol executor, the ablation benches, and the logs all speak the
// same language.
#pragma once

#include <array>
#include <cstdint>
#include <numbers>
#include <string_view>

#include "common/ids.h"

namespace geogrid::loadbalance {

enum class Mechanism : std::uint8_t {
  kStealSecondary = 0,             ///< (a) steal a neighbor's secondary
  kSwitchPrimary = 1,              ///< (b) switch primaries with a neighbor
  kMergeNeighbor = 2,              ///< (c) merge with a neighbor
  kSplitRegion = 3,                ///< (d) split between equal dual peers
  kSwitchWithNeighborSecondary = 4,///< (e) primary <-> neighbor's secondary
  kStealRemoteSecondary = 5,       ///< (f) steal a remote secondary
  kSwitchWithRemoteSecondary = 6,  ///< (g) primary <-> remote secondary
  kSwitchWithRemotePrimary = 7,    ///< (h) primary <-> remote primary
};

inline constexpr std::size_t kMechanismCount = 8;

std::string_view mechanism_name(Mechanism m);

/// Letter used in the paper's Figure 4 ('a'..'h').
constexpr char mechanism_letter(Mechanism m) noexcept {
  return static_cast<char>('a' + static_cast<int>(m));
}

/// One planned adaptation.
struct Plan {
  Mechanism mechanism = Mechanism::kStealSecondary;
  RegionId subject{};   ///< the overloaded region
  RegionId partner{};   ///< neighbor/remote region involved (invalid for (d))
  bool valid = false;   ///< false = no applicable mechanism found

  explicit operator bool() const noexcept { return valid; }
};

/// Tunables of the adaptation process.
struct PlannerConfig {
  /// Trigger: adapt when own index > trigger_ratio * min neighbor index.
  double trigger_ratio = std::numbers::sqrt2;
  /// TTL of the guided search for remote candidates (graph rings searched:
  /// 2..search_ttl; ring 1 is covered by the local mechanisms).
  int search_ttl = 3;
  /// Per-mechanism enable switches (for the ablation benches).
  std::array<bool, kMechanismCount> enabled{true, true, true, true,
                                            true, true, true, true};

  bool mechanism_enabled(Mechanism m) const noexcept {
    return enabled[static_cast<std::size_t>(m)];
  }
};

}  // namespace geogrid::loadbalance
