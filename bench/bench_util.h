// Shared plumbing for the figure-reproduction harnesses.
//
// Every figure binary prints a human-readable table to stdout and, when
// GEOGRID_CSV_DIR is set, writes the same series as CSV there.  GEOGRID_RUNS
// overrides the number of random networks averaged per data point (the
// paper uses 100; the default here keeps a full bench sweep under a minute
// on a laptop).  The mobile-path benches describe their results once, as a
// bench::Report, and get all three outputs from it.
#pragma once

#include <algorithm>
#include <chrono>
#include <concepts>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
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

/// Shard or thread counts every scaling curve sweeps.  kHeadline is the
/// parallel configuration a point's headline keys report, recorded with
/// the real count it ran and the host's core count.
inline constexpr std::size_t kSweep[] = {1, 2, 4, 8, 16};
inline constexpr std::size_t kHeadline = 8;

inline std::size_t host_cores() {
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

inline double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// A result diverged from its reference, so no number of this run can be
/// trusted: exit non-zero before anything is reported.
[[noreturn]] inline void fail(const char* what) {
  std::fprintf(stderr, "divergence abort: %s\n", what);
  std::exit(1);
}

/// One named value of a report, rendered once: integers exactly, doubles
/// at the precision the caller gives, strings quoted in the JSON.
struct Metric {
  template <std::integral T>
  Metric(const char* key, T value) : name(key), text(std::to_string(value)) {}
  Metric(const char* key, double value, int precision) : name(key) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.*f", precision, value);
    text = buf;
  }
  Metric(const char* key, const char* value)
      : name(key), text(value), quoted(true) {}

  const char* name;
  std::string text;
  bool quoted = false;
};

using Row = std::vector<Metric>;

/// One thread-curve entry: the thread count plus the values measured there
/// (exactly one of them a *_per_sec rate, which the scaling gate reads).
struct CurveEntry {
  std::size_t threads;
  Row values;
};

/// A mobile-path bench's results: run-wide header values, then one row per
/// population point with an optional thread curve.  add() prints the point
/// to stdout as name=value pairs and appends it to
/// GEOGRID_CSV_DIR/<bench>.csv; finish() writes every point, curves
/// included, to GEOGRID_JSON_OUT in the layout check_bench_smoke.py and
/// the committed BENCH_*.json baselines share.
class Report {
 public:
  Report(const char* bench, const char* title, Row header)
      : bench_(bench), header_(std::move(header)), csv_(csv_for(bench)) {
    std::printf("%s\n", title);
    print(header_, 2);
  }

  void add(Row point, std::vector<CurveEntry> curve = {}) {
    print(point, 0);
    for (const CurveEntry& entry : curve) {
      print(with_threads(entry), 4);
    }
    if (csv_) {
      std::vector<std::string> names;
      std::vector<std::string> texts;
      for (const Metric& m : point) {
        names.emplace_back(m.name);
        texts.push_back(m.text);
      }
      if (points_.empty()) csv_->fields(names);
      csv_->fields(texts);
    }
    points_.push_back({std::move(point), std::move(curve)});
  }

  /// Writes the JSON report when GEOGRID_JSON_OUT is set; returns the
  /// process exit status.
  int finish() const {
    std::printf("divergence aborts: 0\n");
    const char* path = std::getenv("GEOGRID_JSON_OUT");
    if (path == nullptr) return 0;
    std::FILE* f = std::fopen(path, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", path);
      return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"%s\",\n", bench_.c_str());
    for (const Metric& m : header_) {
      std::fprintf(f, "  %s,\n", json(Row{m}).c_str());
    }
    std::fprintf(f, "  \"points\": [\n");
    for (std::size_t i = 0; i < points_.size(); ++i) {
      const auto& [point, curve] = points_[i];
      std::fprintf(f, "    {%s", json(point).c_str());
      if (!curve.empty()) {
        std::fprintf(f, ",\n     \"thread_curve\": [");
        for (std::size_t c = 0; c < curve.size(); ++c) {
          std::fprintf(f, "%s{%s}", c == 0 ? "" : ", ",
                       json(with_threads(curve[c])).c_str());
        }
        std::fprintf(f, "]");
      }
      std::fprintf(f, "}%s\n", i + 1 < points_.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("baseline written to %s\n", path);
    return 0;
  }

 private:
  static Row with_threads(const CurveEntry& entry) {
    Row row{{"threads", entry.threads}};
    row.insert(row.end(), entry.values.begin(), entry.values.end());
    return row;
  }

  static std::string json(const Row& row) {
    std::string out;
    for (const Metric& m : row) {
      if (!out.empty()) out += ", ";
      out += '"' + std::string(m.name) + "\": ";
      out += m.quoted ? '"' + m.text + '"' : m.text;
    }
    return out;
  }

  /// name=value pairs, wrapped before 80 columns; continuation lines sit
  /// two spaces deeper than the first.
  static void print(const Row& row, std::size_t indent) {
    std::string line(indent, ' ');
    std::size_t start = indent;
    for (const Metric& m : row) {
      const std::string pair = std::string(m.name) + '=' + m.text;
      if (line.size() > start && line.size() + 1 + pair.size() > 80) {
        std::printf("%s\n", line.c_str());
        start = indent + 2;
        line.assign(start, ' ');
      } else if (line.size() > start) {
        line += ' ';
      }
      line += pair;
    }
    std::printf("%s\n", line.c_str());
  }

  std::string bench_;
  Row header_;
  std::unique_ptr<CsvWriter> csv_;
  std::vector<std::pair<Row, std::vector<CurveEntry>>> points_;
};

}  // namespace geogrid::bench
