// Measurements taken from outside the program under test: allocation
// counts (a counting global operator new), bytes handed to send(2) (an
// interposed send), process CPU time and resident set, a watchdog, and
// the in-memory span log of the traced run.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace servebench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Allocation tallies.  Counting is off unless a traced replay switches
/// it on, so the served measurement pays one relaxed load per allocation.
struct AllocCount {
  std::uint64_t allocs = 0;
  std::uint64_t bytes = 0;
};
void set_alloc_counting(bool on);
AllocCount alloc_count();

/// Every byte any thread of this process passed to a successful send(2):
/// client requests plus server replies, acks and notifications.
std::uint64_t wire_bytes_sent();

struct CpuTimes {
  double user_s = 0.0;
  double sys_s = 0.0;
};
CpuTimes process_cpu();
double resident_mb();

/// Bounds each phase of a run: if the current phase is still running past
/// its limit, the process prints the workload and phase and exits with
/// status 3 (serve::Client has no receive deadline of its own).
class Watchdog {
 public:
  explicit Watchdog(std::string workload);
  ~Watchdog();
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  void phase(const char* name, double limit_s);

 private:
  struct State;
  State* state_;
};

/// One span of the traced run.  Round spans are the served client-side
/// round trips: id = round number, parent 0.  Their children are the
/// replayed public calls of that round (ids from 2^32 up).  Self time of
/// a round span is its duration minus its children's.
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  const char* name = "";
  double start_us = 0.0;
  double dur_us = 0.0;
  std::uint64_t items = 0;  ///< frames, records, queries ... the call handled
  std::uint64_t allocs = 0;
  std::uint64_t alloc_bytes = 0;
};

/// Spans of the traced run, kept in memory and written out at exit.
class SpanLog {
 public:
  SpanLog() : t0_(Clock::now()) {}

  void add_round(std::uint64_t round, Clock::time_point start,
                 Clock::time_point end, std::uint64_t ops);
  /// Records a child of `round` from `start` to now, with the
  /// allocations made since `allocs_at_start`.
  void add_child(std::uint64_t round, const char* name,
                 Clock::time_point start, std::uint64_t items,
                 const AllocCount& allocs_at_start);

  const std::vector<Span>& spans() const noexcept { return spans_; }
  /// Tab-separated, one span per line.  Returns false on I/O failure.
  bool write(const std::string& path) const;

 private:
  Clock::time_point t0_;
  std::uint64_t next_child_ = std::uint64_t{1} << 32;
  std::vector<Span> spans_;
};

/// A child span in progress; a no-op when `log` is null (untraced).
class Timed {
 public:
  Timed(SpanLog* log, std::uint64_t round, const char* name)
      : log_(log), round_(round), name_(name) {
    if (log_ != nullptr) {
      allocs_ = alloc_count();
      start_ = Clock::now();
    }
  }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

  void done(std::uint64_t items) {
    if (log_ != nullptr) log_->add_child(round_, name_, start_, items, allocs_);
  }

 private:
  SpanLog* log_;
  std::uint64_t round_;
  const char* name_;
  AllocCount allocs_{};
  Clock::time_point start_{};
};

}  // namespace servebench
