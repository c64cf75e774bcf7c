#include "common/ascii_render.h"

#include <algorithm>
#include <cmath>

namespace geogrid {
namespace {

constexpr std::string_view kRamp = " .:-=+*#%@";

char shade_char(double value, double peak) {
  if (peak <= 0.0) return kRamp.front();
  const double t = std::clamp(value / peak, 0.0, 1.0);
  const auto idx = static_cast<std::size_t>(t * static_cast<double>(kRamp.size() - 1));
  return kRamp[idx];
}

}  // namespace

std::string render_partition(const Rect& plane,
                             const std::vector<ShadedRect>& regions,
                             std::size_t rows, std::size_t cols) {
  double peak = 0.0;
  for (const auto& r : regions) peak = std::max(peak, r.value);

  std::string out;
  out.reserve((cols + 1) * rows);
  // Render north-to-south so the top line of text is the top of the plane.
  for (std::size_t row = 0; row < rows; ++row) {
    const double y = plane.top() -
                     (static_cast<double>(row) + 0.5) * plane.height /
                         static_cast<double>(rows);
    for (std::size_t col = 0; col < cols; ++col) {
      const double x = plane.x + (static_cast<double>(col) + 0.5) *
                                     plane.width / static_cast<double>(cols);
      const Point p{x, y};
      char c = '?';
      for (const auto& r : regions) {
        if (!r.rect.owns(p, plane)) continue;
        // Mark cells near a region border so the partition is visible.
        const double dx = std::min(p.x - r.rect.x, r.rect.right() - p.x);
        const double dy = std::min(p.y - r.rect.y, r.rect.top() - p.y);
        const double cell_w = plane.width / static_cast<double>(cols);
        const double cell_h = plane.height / static_cast<double>(rows);
        if (dx < cell_w * 0.5) {
          c = '|';
        } else if (dy < cell_h * 0.5) {
          c = '-';
        } else {
          c = shade_char(r.value, peak);
        }
        break;
      }
      out += c;
    }
    out += '\n';
  }
  return out;
}

std::string render_field(const Rect& plane,
                         const std::function<double(Point)>& field,
                         std::size_t rows, std::size_t cols) {
  std::vector<double> samples(rows * cols, 0.0);
  double peak = 0.0;
  for (std::size_t row = 0; row < rows; ++row) {
    const double y = plane.top() -
                     (static_cast<double>(row) + 0.5) * plane.height /
                         static_cast<double>(rows);
    for (std::size_t col = 0; col < cols; ++col) {
      const double x = plane.x + (static_cast<double>(col) + 0.5) *
                                     plane.width / static_cast<double>(cols);
      const double v = field(Point{x, y});
      samples[row * cols + col] = v;
      peak = std::max(peak, v);
    }
  }
  std::string out;
  out.reserve((cols + 1) * rows);
  for (std::size_t row = 0; row < rows; ++row) {
    for (std::size_t col = 0; col < cols; ++col) {
      out += shade_char(samples[row * cols + col], peak);
    }
    out += '\n';
  }
  return out;
}

}  // namespace geogrid
