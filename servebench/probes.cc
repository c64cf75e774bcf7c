#include "probes.h"

#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <new>
#include <thread>

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_wire_bytes{0};

// Allocation tallies, one cache line per thread so counting adds no
// contention between the loop, pool and generator threads (threads past
// kSlots share the last one).
struct alignas(64) AllocSlot {
  std::atomic<std::uint64_t> allocs{0};
  std::atomic<std::uint64_t> bytes{0};
};
constexpr std::size_t kSlots = 128;
AllocSlot g_slots[kSlots];
std::atomic<std::size_t> g_slots_used{0};
thread_local AllocSlot* t_slot = nullptr;

void count_alloc(std::size_t n) {
  if (!g_counting.load(std::memory_order_relaxed)) return;
  if (t_slot == nullptr) {
    const std::size_t i = g_slots_used.fetch_add(1, std::memory_order_relaxed);
    t_slot = &g_slots[std::min(i, kSlots - 1)];
  }
  t_slot->allocs.fetch_add(1, std::memory_order_relaxed);
  t_slot->bytes.fetch_add(n, std::memory_order_relaxed);
}

void* counted_alloc(std::size_t n) {
  count_alloc(n);
  return std::malloc(n == 0 ? 1 : n);
}

void* counted_aligned_alloc(std::size_t n, std::align_val_t al) {
  count_alloc(n);
  void* p = nullptr;
  const std::size_t align = std::max(static_cast<std::size_t>(al),
                                     sizeof(void*));
  if (::posix_memalign(&p, align, n == 0 ? 1 : n) != 0) return nullptr;
  return p;
}

}  // namespace

// ---- counting global allocation functions --------------------------------

void* operator new(std::size_t n) {
  void* p = counted_alloc(n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new(std::size_t n, std::align_val_t al) {
  void* p = counted_aligned_alloc(n, al);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return ::operator new(n, al);
}
void* operator new(std::size_t n, std::align_val_t al,
                   const std::nothrow_t&) noexcept {
  return counted_aligned_alloc(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al,
                     const std::nothrow_t&) noexcept {
  return counted_aligned_alloc(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

// ---- interposed send(2) --------------------------------------------------
// Client and server both write through send(); this definition in the
// executable takes precedence over libc's and counts what was accepted.

extern "C" ssize_t send(int fd, const void* buf, std::size_t len, int flags) {
  const long n = ::syscall(SYS_sendto, fd, buf, len, flags, nullptr, 0);
  if (n > 0) {
    g_wire_bytes.fetch_add(static_cast<std::uint64_t>(n),
                           std::memory_order_relaxed);
  }
  return static_cast<ssize_t>(n);
}

namespace servebench {

void set_alloc_counting(bool on) {
  g_counting.store(on, std::memory_order_relaxed);
}

AllocCount alloc_count() {
  AllocCount c;
  const std::size_t used =
      std::min(g_slots_used.load(std::memory_order_relaxed), kSlots);
  for (std::size_t i = 0; i < used; ++i) {
    c.allocs += g_slots[i].allocs.load(std::memory_order_relaxed);
    c.bytes += g_slots[i].bytes.load(std::memory_order_relaxed);
  }
  return c;
}

std::uint64_t wire_bytes_sent() {
  return g_wire_bytes.load(std::memory_order_relaxed);
}

CpuTimes process_cpu() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return {secs(ru.ru_utime), secs(ru.ru_stime)};
}

double resident_mb() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0.0;
  unsigned long size = 0;
  unsigned long resident = 0;
  const int got = std::fscanf(f, "%lu %lu", &size, &resident);
  std::fclose(f);
  if (got != 2) return 0.0;
  return static_cast<double>(resident) *
         static_cast<double>(::sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

// ---- watchdog ------------------------------------------------------------

struct Watchdog::State {
  std::string workload;
  std::mutex mu;
  std::condition_variable cv;
  const char* phase = "start";
  Clock::time_point deadline = Clock::time_point::max();
  double limit_s = 0.0;
  bool stop = false;
  std::thread thread;

  void run() {
    std::unique_lock<std::mutex> lock(mu);
    while (!stop) {
      if (Clock::now() >= deadline) {
        std::fprintf(stderr,
                     "servebench: watchdog: workload %s, phase %s ran past "
                     "its %.0f s limit\n",
                     workload.c_str(), phase, limit_s);
        std::fflush(stderr);
        std::_Exit(3);
      }
      if (deadline == Clock::time_point::max()) {
        cv.wait(lock);
      } else {
        cv.wait_until(lock, deadline);
      }
    }
  }
};

Watchdog::Watchdog(std::string workload) : state_(new State) {
  state_->workload = std::move(workload);
  state_->thread = std::thread([s = state_] { s->run(); });
}

Watchdog::~Watchdog() {
  {
    std::lock_guard<std::mutex> lock(state_->mu);
    state_->stop = true;
  }
  state_->cv.notify_all();
  state_->thread.join();
  delete state_;
}

void Watchdog::phase(const char* name, double limit_s) {
  {
    std::lock_guard<std::mutex> lock(state_->mu);
    state_->phase = name;
    state_->limit_s = limit_s;
    state_->deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(limit_s));
  }
  state_->cv.notify_all();
}

// ---- spans ---------------------------------------------------------------

void SpanLog::add_round(std::uint64_t round, Clock::time_point start,
                        Clock::time_point end, std::uint64_t ops) {
  Span s;
  s.id = round;
  s.name = "round";
  s.start_us = std::chrono::duration<double, std::micro>(start - t0_).count();
  s.dur_us = std::chrono::duration<double, std::micro>(end - start).count();
  s.items = ops;
  spans_.push_back(s);
}

void SpanLog::add_child(std::uint64_t round, const char* name,
                        Clock::time_point start, std::uint64_t items,
                        const AllocCount& allocs_at_start) {
  const Clock::time_point end = Clock::now();
  const AllocCount now = alloc_count();
  Span s;
  s.id = next_child_++;
  s.parent = round;
  s.name = name;
  s.start_us = std::chrono::duration<double, std::micro>(start - t0_).count();
  s.dur_us = std::chrono::duration<double, std::micro>(end - start).count();
  s.items = items;
  s.allocs = now.allocs - allocs_at_start.allocs;
  s.alloc_bytes = now.bytes - allocs_at_start.bytes;
  spans_.push_back(s);
}

bool SpanLog::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "id\tparent\tname\tstart_us\tdur_us\titems\tallocs\t"
                  "alloc_bytes\n");
  for (const Span& s : spans_) {
    std::fprintf(f, "%llu\t%llu\t%s\t%.3f\t%.3f\t%llu\t%llu\t%llu\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent), s.name,
                 s.start_us, s.dur_us,
                 static_cast<unsigned long long>(s.items),
                 static_cast<unsigned long long>(s.allocs),
                 static_cast<unsigned long long>(s.alloc_bytes));
  }
  return std::fclose(f) == 0;
}

}  // namespace servebench
