// Shared plumbing for the figure-reproduction harnesses.
//
// Every figure binary prints a human-readable table to stdout and, when
// GEOGRID_CSV_DIR is set, writes the same series as CSV there.  GEOGRID_RUNS
// overrides the number of random networks averaged per data point (the
// paper uses 100; the default here keeps a full bench sweep under a minute
// on a laptop).
#pragma once

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/csv.h"

namespace geogrid::bench {

inline std::size_t runs_per_point(std::size_t fallback = 5) {
  if (const char* env = std::getenv("GEOGRID_RUNS")) {
    const long v = std::atol(env);
    if (v > 0) return static_cast<std::size_t>(v);
  }
  return fallback;
}

/// CSV sink for a figure, or null when GEOGRID_CSV_DIR is unset.
inline std::unique_ptr<CsvWriter> csv_for(const std::string& figure) {
  const char* dir = std::getenv("GEOGRID_CSV_DIR");
  if (dir == nullptr) return nullptr;
  return std::make_unique<CsvWriter>(std::string(dir) + "/" + figure +
                                     ".csv");
}

/// User populations a mobile-path bench sweeps: GEOGRID_BENCH_POPS as a
/// comma-separated list when it names at least one positive count, else
/// `defaults` plus 1M users when GEOGRID_BENCH_LARGE is set and not "0".
inline std::vector<std::size_t> pick_populations(
    std::vector<std::size_t> defaults) {
  if (const char* env = std::getenv("GEOGRID_BENCH_POPS")) {
    std::vector<std::size_t> pops;
    const char* p = env;
    while (*p != '\0') {
      char* end = nullptr;
      const unsigned long long v = std::strtoull(p, &end, 10);
      if (end == p) break;
      if (v > 0) pops.push_back(static_cast<std::size_t>(v));
      p = (*end == ',') ? end + 1 : end;
    }
    if (!pops.empty()) return pops;
  }
  if (const char* env = std::getenv("GEOGRID_BENCH_LARGE");
      env != nullptr && env[0] != '0') {
    defaults.push_back(1'000'000);
  }
  return defaults;
}

inline void banner(const char* title) {
  std::printf("\n=== %s ===\n", title);
}

}  // namespace geogrid::bench
