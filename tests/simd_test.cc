// The range filters of common/simd.h, every tier, against a scalar
// Rect::covers reference, index for index: every length from 0 to 33 (so
// every tail of an eight-lane group), points on each edge and corner, NaN
// and infinities in coordinates and bounds, empty rects, and repeated,
// descending and >= 2^31 slots.  AddressSanitizer does not instrument
// gathers or masked loads and stores, so the columns, slot lists and
// outputs here end where an inaccessible page begins: a lane that reads or
// writes past its caller's n faults in every build.
#include "common/simd.h"

#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <cfloat>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <ostream>
#include <vector>

#include "common/geometry.h"
#include "common/rng.h"

namespace geogrid::common {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

/// An anonymous mapping of at least `bytes`, optionally followed by an
/// inaccessible page.  Unmapped on destruction.
class Mapping {
 public:
  Mapping(std::size_t bytes, bool guard, int flags = 0) {
    const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
    bytes_ = (bytes + page - 1) / page * page;
    size_ = bytes_ + (guard ? page : 0);
    void* p = mmap(nullptr, size_, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | flags, -1, 0);
    if (p == MAP_FAILED) return;
    base_ = static_cast<std::byte*>(p);
    if (guard && mprotect(base_ + bytes_, page, PROT_NONE) != 0) {
      munmap(base_, size_);
      base_ = nullptr;
    }
  }
  ~Mapping() {
    if (base_ != nullptr) munmap(base_, size_);
  }
  Mapping(const Mapping&) = delete;
  Mapping& operator=(const Mapping&) = delete;

  bool ok() const { return base_ != nullptr; }
  std::byte* begin() const { return base_; }
  /// One past the accessible bytes: the guard page, if any.
  std::byte* end() const { return base_ + bytes_; }

 private:
  std::byte* base_ = nullptr;
  std::size_t bytes_ = 0;
  std::size_t size_ = 0;
};

/// Room for up to `capacity` values of T whose last one sits just before a
/// guard page: tail(n) holds n of them, and element n faults.
template <typename T>
class Guarded {
 public:
  explicit Guarded(std::size_t capacity)
      : map_(capacity * sizeof(T), /*guard=*/true) {}
  bool ok() const { return map_.ok(); }
  T* tail(std::size_t n) const {
    return reinterpret_cast<T*>(map_.end()) - n;
  }

 private:
  Mapping map_;
};

using PointsFilter = std::size_t (*)(const double*, const double*,
                                     std::size_t, double, double, double,
                                     double, std::uint32_t*);
using SlotsFilter = std::size_t (*)(const double*, const double*,
                                    const std::uint32_t*, std::size_t, double,
                                    double, double, double, std::uint32_t*);

struct Tier {
  const char* name;
  bool avx512;
  PointsFilter points;
  SlotsFilter slots;

  friend void PrintTo(const Tier& t, std::ostream* os) { *os << t.name; }
};

/// The CPU feature the AVX-512 tier needs and this CPU lacks, or null.
const char* missing_avx512_feature() {
#if defined(__x86_64__)
  __builtin_cpu_init();
  if (!__builtin_cpu_supports("avx512f")) return "avx512f";
  if (!__builtin_cpu_supports("avx512vl")) return "avx512vl";
  return nullptr;
#else
  return "x86-64";
#endif
}

class StoreFilters : public ::testing::TestWithParam<Tier> {
 protected:
  void SetUp() override {
    const char* missing = missing_avx512_feature();
    EXPECT_EQ(avx512::supported(), missing == nullptr);
    if (GetParam().avx512 && missing != nullptr) {
      GTEST_SKIP() << "this CPU lacks " << missing
                   << "; the AVX-512 tier does not run here";
    }
  }
};

/// Rects whose edges are ordinary, coincide (zero extent), cross
/// (negative extent), are NaN or are infinite.  The filters take the
/// edges a store derives from a Rect: x, right(), y, top().
std::vector<Rect> rects() {
  return {Rect{1.0, 2.0, 3.0, 4.0},
          Rect{-2.5, -1.0, 0.5, 7.25},
          Rect{1e300, -1e-300, 1e300, 2e-300},
          Rect{1.0, 2.0, 0.0, 4.0},
          Rect{1.0, 2.0, 3.0, 0.0},
          Rect{1.0, 2.0, -3.0, 4.0},
          Rect{1.0, 2.0, 3.0, -4.0},
          Rect{kNaN, 2.0, 3.0, 4.0},
          Rect{1.0, kNaN, 3.0, 4.0},
          Rect{1.0, 2.0, kNaN, 4.0},
          Rect{1.0, 2.0, 3.0, kNaN},
          Rect{0.0, 0.0, kInf, kInf},
          Rect{-DBL_MAX, -DBL_MAX, kInf, kInf},
          Rect{-kInf, 2.0, 3.0, 4.0},
          Rect{-kInf, -kInf, kInf, kInf}};
}

/// Values on, just inside and just outside both edges of [lo, hi], the
/// middle, both zeros, NaN and the infinities.
std::vector<double> axis_values(double lo, double hi) {
  return {lo,
          hi,
          lo + (hi - lo) / 2,
          std::nextafter(lo, kInf),
          std::nextafter(lo, -kInf),
          std::nextafter(hi, kInf),
          std::nextafter(hi, -kInf),
          lo - 1.0,
          hi + 1.0,
          0.0,
          -0.0,
          kNaN,
          kInf,
          -kInf};
}

/// Every pairing of the rect's x and y axis values: each edge and corner.
std::vector<Point> edge_points(const Rect& r) {
  std::vector<Point> out;
  for (const double x : axis_values(r.x, r.right())) {
    for (const double y : axis_values(r.y, r.top())) out.push_back({x, y});
  }
  return out;
}

std::size_t run_points(PointsFilter f, const Rect& r, const double* xs,
                       const double* ys, std::size_t n, std::uint32_t* out) {
  return f(xs, ys, n, r.x, r.right(), r.y, r.top(), out);
}

std::size_t run_slots(SlotsFilter f, const Rect& r, const double* xs,
                      const double* ys, const std::uint32_t* slots,
                      std::size_t n, std::uint32_t* out) {
  return f(xs, ys, slots, n, r.x, r.right(), r.y, r.top(), out);
}

TEST_P(StoreFilters, PointsMatchCoversAtEveryLength) {
  const PointsFilter filter = GetParam().points;
  constexpr std::size_t kMax = 256;
  Guarded<double> xcol(kMax), ycol(kMax);
  Guarded<std::uint32_t> outcol(kMax);
  ASSERT_TRUE(xcol.ok() && ycol.ok() && outcol.ok());
  Rng rng(2718);
  for (const Rect& r : rects()) {
    const std::vector<Point> pool = edge_points(r);
    ASSERT_LE(pool.size(), kMax);
    // Lengths 0..33 draw from the pool at random, four times each; the
    // last pass takes the whole pool in order.
    std::vector<std::vector<Point>> cases;
    for (std::size_t n = 0; n <= 33; ++n) {
      for (int trial = 0; trial < 4; ++trial) {
        std::vector<Point> pts(n);
        for (Point& p : pts) p = pool[rng.uniform_index(pool.size())];
        cases.push_back(std::move(pts));
      }
    }
    cases.push_back(pool);
    for (const std::vector<Point>& pts : cases) {
      const std::size_t n = pts.size();
      double* xs = xcol.tail(n);
      double* ys = ycol.tail(n);
      std::vector<std::uint32_t> want;
      for (std::size_t i = 0; i < n; ++i) {
        xs[i] = pts[i].x;
        ys[i] = pts[i].y;
        if (r.covers(pts[i])) want.push_back(static_cast<std::uint32_t>(i));
      }
      std::uint32_t* out = outcol.tail(n);
      const std::size_t found = run_points(filter, r, xs, ys, n, out);
      ASSERT_EQ(std::vector<std::uint32_t>(out, out + found), want)
          << "rect {" << r.x << ", " << r.y << ", " << r.width << ", "
          << r.height << "} n=" << n;
    }
  }
}

TEST_P(StoreFilters, SlotsMatchCoversAtEveryLength) {
  const SlotsFilter filter = GetParam().slots;
  constexpr std::size_t kColumn = 200;
  Guarded<double> xcol(kColumn), ycol(kColumn);
  Guarded<std::uint32_t> slotcol(64), outcol(64);
  ASSERT_TRUE(xcol.ok() && ycol.ok() && slotcol.ok() && outcol.ok());
  double* xs = xcol.tail(kColumn);
  double* ys = ycol.tail(kColumn);
  Rng rng(3141);
  for (const Rect& r : rects()) {
    const std::vector<Point> pool = edge_points(r);
    ASSERT_LE(pool.size(), kColumn);
    for (std::size_t i = 0; i < kColumn; ++i) {
      const Point p = pool[i % pool.size()];
      xs[i] = p.x;
      ys[i] = p.y;
    }
    for (std::size_t n = 0; n <= 33; ++n) {
      // Random slots (repeats likely), the column's last n descending
      // (the last slot sits just before the guard page), and one slot n
      // times over.
      std::vector<std::vector<std::uint32_t>> lists(3);
      for (std::size_t j = 0; j < n; ++j) {
        lists[0].push_back(
            static_cast<std::uint32_t>(rng.uniform_index(kColumn)));
        lists[1].push_back(static_cast<std::uint32_t>(kColumn - 1 - j));
      }
      lists[2].assign(n, static_cast<std::uint32_t>(
                             rng.uniform_index(kColumn)));
      for (const std::vector<std::uint32_t>& list : lists) {
        std::uint32_t* slots = slotcol.tail(n);
        std::vector<std::uint32_t> want;
        for (std::size_t j = 0; j < n; ++j) {
          slots[j] = list[j];
          if (r.covers(Point{xs[list[j]], ys[list[j]]})) {
            want.push_back(list[j]);
          }
        }
        std::uint32_t* out = outcol.tail(n);
        const std::size_t found = run_slots(filter, r, xs, ys, slots, n, out);
        ASSERT_EQ(std::vector<std::uint32_t>(out, out + found), want)
            << "rect {" << r.x << ", " << r.y << ", " << r.width << ", "
            << r.height << "} n=" << n;
      }
    }
  }
}

TEST_P(StoreFilters, SlotsPast2To31IndexTheColumnUnsigned) {
  // A sparse column of 2^31 + 48 doubles (address space only: just the
  // pages the test writes are ever touched) with values on both sides of
  // slot 2^31, where a signed 32-bit gather index would turn negative.
  const SlotsFilter filter = GetParam().slots;
  constexpr std::uint32_t kHigh = std::uint32_t{1} << 31;
  constexpr std::size_t kLength = std::size_t{kHigh} + 48;
  Mapping xmap(kLength * sizeof(double), /*guard=*/false, MAP_NORESERVE);
  Mapping ymap(kLength * sizeof(double), /*guard=*/false, MAP_NORESERVE);
  ASSERT_TRUE(xmap.ok() && ymap.ok())
      << "cannot map a sparse column of " << kLength << " doubles";
  auto* xs = reinterpret_cast<double*>(xmap.begin());
  auto* ys = reinterpret_cast<double*>(ymap.begin());
  Guarded<std::uint32_t> slotcol(64), outcol(64);
  ASSERT_TRUE(slotcol.ok() && outcol.ok());

  const Rect r{1.0, 2.0, 3.0, 4.0};
  const std::vector<Point> pool = edge_points(r);
  // Slots 0..63 and kHigh - 16 .. kHigh + 47 hold points of the pool.
  std::vector<std::uint32_t> used;
  for (std::uint32_t s = 0; s < 64; ++s) {
    used.push_back(s);
    used.push_back(kHigh - 16 + s);
  }
  Rng rng(1618);
  for (const std::uint32_t s : used) {
    const Point p = pool[rng.uniform_index(pool.size())];
    xs[s] = p.x;
    ys[s] = p.y;
  }
  for (std::size_t n = 0; n <= 33; ++n) {
    for (int trial = 0; trial < 8; ++trial) {
      std::uint32_t* slots = slotcol.tail(n);
      std::vector<std::uint32_t> want;
      for (std::size_t j = 0; j < n; ++j) {
        // Mostly high slots, some low, in no order.
        const auto s = static_cast<std::uint32_t>(
            (rng.chance(0.75) ? kHigh - 16 : 0) + rng.uniform_index(64));
        slots[j] = s;
        if (r.covers(Point{xs[s], ys[s]})) want.push_back(s);
      }
      std::uint32_t* out = outcol.tail(n);
      const std::size_t found = run_slots(filter, r, xs, ys, slots, n, out);
      ASSERT_EQ(std::vector<std::uint32_t>(out, out + found), want)
          << "n=" << n << " trial=" << trial;
    }
  }
}

const Tier kTiers[] = {
    {"Portable", false, &portable::filter_points_in_rect,
     &portable::filter_slots_in_rect},
#if defined(__x86_64__)
    {"Avx512", true, &avx512::filter_points_in_rect,
     &avx512::filter_slots_in_rect},
#endif
};

INSTANTIATE_TEST_SUITE_P(
    Tiers, StoreFilters, ::testing::ValuesIn(kTiers),
    [](const ::testing::TestParamInfo<Tier>& tier) { return tier.param.name; });

}  // namespace
}  // namespace geogrid::common
