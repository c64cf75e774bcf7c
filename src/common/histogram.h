// Fixed-bin histogram used by the report renderers (region-size and
// workload-index distributions of Figures 2 and 3) and by test assertions on
// the capacity distribution.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace geogrid {

/// Uniform-width histogram over [lo, hi); out-of-range samples clamp to the
/// first/last bin so no observation is silently dropped.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x) noexcept;

  std::size_t count(std::size_t bin) const { return counts_.at(bin); }
  std::size_t total() const noexcept { return total_; }
  double lo() const noexcept { return lo_; }
  double hi() const noexcept { return hi_; }

  /// Inclusive lower edge of a bin.
  double bin_lower(std::size_t bin) const;

  /// Fraction of samples in a bin (0 when empty).
  double fraction(std::size_t bin) const;

  /// Multi-line ASCII bar rendering, for report output.
  std::string render(std::size_t bar_width = 50) const;

 private:
  double lo_;
  double hi_;
  double bin_width_;
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
};

}  // namespace geogrid
