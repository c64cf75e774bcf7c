// The k-nearest answer by definition, for the tests that hold the pruned
// store probes and the engine's merge against it: every record sorted by
// (distance(), user id), cut to the first k.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "common/geometry.h"
#include "mobility/location_store.h"

namespace geogrid::testutil {

inline std::vector<mobility::LocationRecord> brute_nearest(
    std::vector<mobility::LocationRecord> all, const Point& p,
    std::size_t k) {
  std::sort(all.begin(), all.end(),
            [&p](const mobility::LocationRecord& a,
                 const mobility::LocationRecord& b) {
              const double da = distance(a.position, p);
              const double db = distance(b.position, p);
              if (da != db) return da < db;
              return a.user < b.user;
            });
  all.resize(std::min(k, all.size()));
  return all;
}

}  // namespace geogrid::testutil
