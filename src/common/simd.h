// SIMD point-in-rect filters over structure-of-arrays coordinate columns.
//
// The spatial hot loops of the mobile-user layer (range queries,
// subscription matching) reduce to the region algebra's half-open cover
// test, Rect::covers: lo < v <= hi on both axes.  filter_points_in_rect
// probes columns of points against one rect (the range scan's wide path),
// filter_slots_in_rect probes the points a list of slots names (the range
// scan's bucket path), and filter_rects_covering_point, the transpose,
// probes columns of rects against one point (the subscription match), so
// a range query and a geofence over one rect accept the same points.  Laid
// out as SoA doubles the test is four vector compares per lane group — no
// branches in the loop body, and the columns stream through the cache
// linearly.
//
// Two tiers.  The portable tier compiles everywhere this repo builds with
// no -march flag: SSE2 two lanes at a time (the x86-64 baseline), and a
// scalar loop for tails, for the slot filter and on other architectures.
// On x86-64 the two range filters also carry an AVX-512 tier, compiled per
// function through a target attribute and chosen at run time by one CPU
// check (avx512f and avx512vl, taken once): eight lanes of ordered-quiet
// mask compares, slots zero-extended to 64-bit gather indices, and the
// covered indices compressed in a register and stored as one whole vector
// (a compress straight to memory is microcoded on some cores).  Both tiers
// emit the same indices in the same order — ascending positions, or the
// covered slots in input order — so callers that serialize results
// canonically get identical bytes on every CPU: the tier affects speed,
// never output.  The subscription probe stays portable: its cells hold
// fewer rects than one eight-lane group.
#pragma once

#include <cstddef>
#include <cstdint>

#if defined(__x86_64__)
#include <immintrin.h>
#elif defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace geogrid::common {

namespace portable {

/// filter_points_in_rect's portable tier.
inline std::size_t filter_points_in_rect(const double* xs, const double* ys,
                                         std::size_t n, double x_lo,
                                         double x_hi, double y_lo, double y_hi,
                                         std::uint32_t* out) {
  std::size_t found = 0;
  std::size_t i = 0;
#if defined(__SSE2__)
  const __m128d vxlo = _mm_set1_pd(x_lo);
  const __m128d vxhi = _mm_set1_pd(x_hi);
  const __m128d vylo = _mm_set1_pd(y_lo);
  const __m128d vyhi = _mm_set1_pd(y_hi);
  for (; i + 2 <= n; i += 2) {
    const __m128d x = _mm_loadu_pd(xs + i);
    const __m128d y = _mm_loadu_pd(ys + i);
    const __m128d inx =
        _mm_and_pd(_mm_cmplt_pd(vxlo, x), _mm_cmple_pd(x, vxhi));
    const __m128d iny =
        _mm_and_pd(_mm_cmplt_pd(vylo, y), _mm_cmple_pd(y, vyhi));
    int mask = _mm_movemask_pd(_mm_and_pd(inx, iny));
    while (mask != 0) {
      const int lane = __builtin_ctz(static_cast<unsigned>(mask));
      out[found++] = static_cast<std::uint32_t>(i + lane);
      mask &= mask - 1;
    }
  }
#endif
  for (; i < n; ++i) {
    if (x_lo < xs[i] && xs[i] <= x_hi && y_lo < ys[i] && ys[i] <= y_hi) {
      out[found++] = static_cast<std::uint32_t>(i);
    }
  }
  return found;
}

/// filter_slots_in_rect's portable tier.  About half the candidates of a
/// bucket walk are hits, so a branch on the cover test would mispredict
/// often: each slot is written unconditionally and the write cursor
/// advances by the predicate.
inline std::size_t filter_slots_in_rect(const double* xs, const double* ys,
                                        const std::uint32_t* slots,
                                        std::size_t n, double x_lo,
                                        double x_hi, double y_lo, double y_hi,
                                        std::uint32_t* out) {
  std::size_t found = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t slot = slots[i];
    const double px = xs[slot];
    const double py = ys[slot];
    out[found] = slot;
    found += static_cast<std::size_t>((x_lo < px) & (px <= x_hi) &
                                      (y_lo < py) & (py <= y_hi));
  }
  return found;
}

}  // namespace portable

namespace avx512 {

/// Whether this CPU runs the AVX-512 tier: it reports avx512f and
/// avx512vl.  Checked on the first call only.
inline bool supported() {
#if defined(__x86_64__)
  static const bool yes = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx512f") &&
           __builtin_cpu_supports("avx512vl");
  }();
  return yes;
#else
  return false;
#endif
}

#if defined(__x86_64__)

/// The lanes of an eight-lane group that starts `left` items before the
/// end of its columns: all eight, or a tail's first `left`.
inline __mmask8 live_lanes(std::size_t left) {
  return static_cast<__mmask8>(left >= 8 ? 0xffu : (1u << left) - 1);
}

/// The lanes of `live` whose point (x, y) the rect covers.
[[gnu::target("avx512f,avx512vl")]] inline __mmask8 covered(
    __mmask8 live, __m512d x, __m512d y, __m512d x_lo, __m512d x_hi,
    __m512d y_lo, __m512d y_hi) {
  __mmask8 m = _mm512_mask_cmp_pd_mask(live, x_lo, x, _CMP_LT_OQ);
  m = _mm512_mask_cmp_pd_mask(m, x, x_hi, _CMP_LE_OQ);
  m = _mm512_mask_cmp_pd_mask(m, y_lo, y, _CMP_LT_OQ);
  return _mm512_mask_cmp_pd_mask(m, y, y_hi, _CMP_LE_OQ);
}

/// Packs the `hit` lanes of `values` to the front of out[0, 8) and returns
/// how many there are.  A full group stores the whole vector; a tail
/// stores only the packed lanes, so it never writes past its caller's n.
[[gnu::target("avx512f,avx512vl")]] inline std::size_t store_covered(
    __mmask8 hit, __m256i values, __mmask8 live, std::uint32_t* out) {
  const __m256i packed = _mm256_maskz_compress_epi32(hit, values);
  const auto found = static_cast<unsigned>(__builtin_popcount(hit));
  if (live == 0xff) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out), packed);
  } else {
    _mm256_mask_storeu_epi32(out, live_lanes(found), packed);
  }
  return found;
}

/// filter_points_in_rect's AVX-512 tier; call only where supported().
/// found <= i, so a full group's whole-vector store ends by i + 8 <= n.
[[gnu::target("avx512f,avx512vl")]] inline std::size_t filter_points_in_rect(
    const double* xs, const double* ys, std::size_t n, double x_lo,
    double x_hi, double y_lo, double y_hi, std::uint32_t* out) {
  const __m512d vxlo = _mm512_set1_pd(x_lo);
  const __m512d vxhi = _mm512_set1_pd(x_hi);
  const __m512d vylo = _mm512_set1_pd(y_lo);
  const __m512d vyhi = _mm512_set1_pd(y_hi);
  const __m256i step = _mm256_set1_epi32(8);
  __m256i index = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  std::size_t found = 0;
  for (std::size_t i = 0; i < n; i += 8) {
    const __mmask8 live = live_lanes(n - i);
    const __mmask8 hit = covered(live, _mm512_maskz_loadu_pd(live, xs + i),
                                 _mm512_maskz_loadu_pd(live, ys + i), vxlo,
                                 vxhi, vylo, vyhi);
    found += store_covered(hit, index, live, out + found);
    index = _mm256_add_epi32(index, step);
  }
  return found;
}

/// filter_slots_in_rect's AVX-512 tier; call only where supported().  The
/// gathers are masked with a zero source, so a tail's dead lanes read
/// nothing.
[[gnu::target("avx512f,avx512vl")]] inline std::size_t filter_slots_in_rect(
    const double* xs, const double* ys, const std::uint32_t* slots,
    std::size_t n, double x_lo, double x_hi, double y_lo, double y_hi,
    std::uint32_t* out) {
  const __m512d vxlo = _mm512_set1_pd(x_lo);
  const __m512d vxhi = _mm512_set1_pd(x_hi);
  const __m512d vylo = _mm512_set1_pd(y_lo);
  const __m512d vyhi = _mm512_set1_pd(y_hi);
  const __m512d zero = _mm512_setzero_pd();
  std::size_t found = 0;
  for (std::size_t i = 0; i < n; i += 8) {
    const __mmask8 live = live_lanes(n - i);
    const __m256i slot = _mm256_maskz_loadu_epi32(live, slots + i);
    // Zero-extended: as signed 32-bit indices, slots >= 2^31 would read
    // before the columns.  (The zero-masked forms here draw no
    // -Wmaybe-uninitialized from GCC 12, whose unmasked ones start from an
    // undefined vector.)
    const __m512i at = _mm512_maskz_cvtepu32_epi64(live, slot);
    const __mmask8 hit =
        covered(live, _mm512_mask_i64gather_pd(zero, live, at, xs, 8),
                _mm512_mask_i64gather_pd(zero, live, at, ys, 8), vxlo, vxhi,
                vylo, vyhi);
    found += store_covered(hit, slot, live, out + found);
  }
  return found;
}

#endif  // __x86_64__

}  // namespace avx512

/// Appends to `out` the index of every i in [0, n) whose point
/// (xs[i], ys[i]) the rect (x_lo, x_hi] x (y_lo, y_hi] covers under the
/// half-open test (Rect::covers): x_lo < xs[i] <= x_hi and
/// y_lo < ys[i] <= y_hi, in ascending order.  Returns the number of
/// indices written.  `out` must have room for n.  A NaN bound or
/// coordinate accepts nothing.
inline std::size_t filter_points_in_rect(const double* xs, const double* ys,
                                         std::size_t n, double x_lo,
                                         double x_hi, double y_lo, double y_hi,
                                         std::uint32_t* out) {
#if defined(__x86_64__)
  if (avx512::supported()) {
    return avx512::filter_points_in_rect(xs, ys, n, x_lo, x_hi, y_lo, y_hi,
                                         out);
  }
#endif
  return portable::filter_points_in_rect(xs, ys, n, x_lo, x_hi, y_lo, y_hi,
                                         out);
}

/// Appends to `out` every slot of slots[0, n) whose point
/// (xs[slot], ys[slot]) the rect (x_lo, x_hi] x (y_lo, y_hi] covers under
/// the half-open test, in input order.  Returns the number of slots
/// written.  `out` must have room for n; every slot must index the
/// columns.  A NaN bound or coordinate accepts nothing.
inline std::size_t filter_slots_in_rect(const double* xs, const double* ys,
                                        const std::uint32_t* slots,
                                        std::size_t n, double x_lo,
                                        double x_hi, double y_lo, double y_hi,
                                        std::uint32_t* out) {
#if defined(__x86_64__)
  if (avx512::supported()) {
    return avx512::filter_slots_in_rect(xs, ys, slots, n, x_lo, x_hi, y_lo,
                                        y_hi, out);
  }
#endif
  return portable::filter_slots_in_rect(xs, ys, slots, n, x_lo, x_hi, y_lo,
                                        y_hi, out);
}

/// Appends to `out` the index of every i in [0, n) whose rect
/// [lo_x[i], hi_x[i]] x [lo_y[i], hi_y[i]] covers the point (px, py) under
/// the region algebra's half-open test (Rect::covers): strictly greater
/// than the west/south edge, less-or-equal the east/north edge.  This is
/// the transpose of filter_points_in_rect — one point probed against
/// columns of rects instead of one rect against columns of points — and is
/// the subscription-match primitive: a SubscriptionIndex cell's rect
/// columns stream through four compares, two ANDs and a movemask per lane
/// group.  Indices emit in ascending order on every path, so the match
/// pipeline's canonical (ascending sub-id) ordering is free.  `out` must
/// have room for n.  A degenerate rect (zero width or height) covers
/// nothing: lo < p and p <= hi cannot both hold when lo == hi.
inline std::size_t filter_rects_covering_point(
    const double* lo_x, const double* lo_y, const double* hi_x,
    const double* hi_y, std::size_t n, double px, double py,
    std::uint32_t* out) {
  std::size_t found = 0;
  std::size_t i = 0;
#if defined(__SSE2__)
  const __m128d vpx = _mm_set1_pd(px);
  const __m128d vpy = _mm_set1_pd(py);
  for (; i + 2 <= n; i += 2) {
    const __m128d inx = _mm_and_pd(_mm_cmplt_pd(_mm_loadu_pd(lo_x + i), vpx),
                                   _mm_cmple_pd(vpx, _mm_loadu_pd(hi_x + i)));
    const __m128d iny = _mm_and_pd(_mm_cmplt_pd(_mm_loadu_pd(lo_y + i), vpy),
                                   _mm_cmple_pd(vpy, _mm_loadu_pd(hi_y + i)));
    int mask = _mm_movemask_pd(_mm_and_pd(inx, iny));
    while (mask != 0) {
      const int lane = __builtin_ctz(static_cast<unsigned>(mask));
      out[found++] = static_cast<std::uint32_t>(i + lane);
      mask &= mask - 1;
    }
  }
#endif
  for (; i < n; ++i) {
    if (lo_x[i] < px && px <= hi_x[i] && lo_y[i] < py && py <= hi_y[i]) {
      out[found++] = static_cast<std::uint32_t>(i);
    }
  }
  return found;
}

}  // namespace geogrid::common
