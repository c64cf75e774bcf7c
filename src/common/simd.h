// SIMD point-in-rect filters over structure-of-arrays coordinate columns.
//
// The spatial hot loops of the mobile-user layer (range queries,
// subscription matching) reduce to the region algebra's half-open cover
// test, Rect::covers: lo < v <= hi on both axes.  filter_points_in_rect
// probes columns of points against one rect (the range scan), and its
// transpose filter_rects_covering_point probes columns of rects against
// one point (the subscription match), so a range query and a geofence over
// one rect accept the same points.  Laid out as SoA doubles the test is
// four vector compares, two ANDs and a movemask per lane group — no
// branches in the loop body, no gather, and the columns stream through the
// cache linearly.
//
// The x86-64 baseline guarantees SSE2, so the 2-lane path below compiles
// everywhere this repo builds (CI runners included) with no -march flags;
// an AVX 4-lane path engages when the compiler is allowed to emit it.
// Other architectures fall back to the scalar loop, which the compiler is
// free to autovectorize.  All paths emit indices in ascending order, so
// callers that serialize results canonically get identical bytes whatever
// the vector width — lane count affects speed, never output.
#pragma once

#include <cstddef>
#include <cstdint>

#if defined(__AVX__)
#include <immintrin.h>
#elif defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace geogrid::common {

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
  std::size_t found = 0;
  std::size_t i = 0;
#if defined(__AVX__)
  const __m256d vxlo = _mm256_set1_pd(x_lo);
  const __m256d vxhi = _mm256_set1_pd(x_hi);
  const __m256d vylo = _mm256_set1_pd(y_lo);
  const __m256d vyhi = _mm256_set1_pd(y_hi);
  for (; i + 4 <= n; i += 4) {
    const __m256d x = _mm256_loadu_pd(xs + i);
    const __m256d y = _mm256_loadu_pd(ys + i);
    const __m256d inx = _mm256_and_pd(_mm256_cmp_pd(vxlo, x, _CMP_LT_OQ),
                                      _mm256_cmp_pd(x, vxhi, _CMP_LE_OQ));
    const __m256d iny = _mm256_and_pd(_mm256_cmp_pd(vylo, y, _CMP_LT_OQ),
                                      _mm256_cmp_pd(y, vyhi, _CMP_LE_OQ));
    int mask = _mm256_movemask_pd(_mm256_and_pd(inx, iny));
    while (mask != 0) {
      const int lane = __builtin_ctz(static_cast<unsigned>(mask));
      out[found++] = static_cast<std::uint32_t>(i + lane);
      mask &= mask - 1;
    }
  }
#elif defined(__SSE2__)
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
#if defined(__AVX__)
  const __m256d vpx = _mm256_set1_pd(px);
  const __m256d vpy = _mm256_set1_pd(py);
  for (; i + 4 <= n; i += 4) {
    const __m256d inx =
        _mm256_and_pd(_mm256_cmp_pd(_mm256_loadu_pd(lo_x + i), vpx, _CMP_LT_OQ),
                      _mm256_cmp_pd(vpx, _mm256_loadu_pd(hi_x + i), _CMP_LE_OQ));
    const __m256d iny =
        _mm256_and_pd(_mm256_cmp_pd(_mm256_loadu_pd(lo_y + i), vpy, _CMP_LT_OQ),
                      _mm256_cmp_pd(vpy, _mm256_loadu_pd(hi_y + i), _CMP_LE_OQ));
    int mask = _mm256_movemask_pd(_mm256_and_pd(inx, iny));
    while (mask != 0) {
      const int lane = __builtin_ctz(static_cast<unsigned>(mask));
      out[found++] = static_cast<std::uint32_t>(i + lane);
      mask &= mask - 1;
    }
  }
#elif defined(__SSE2__)
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
