// Minimal CSV emission for bench harnesses and the experiment engine.
//
// Every figure-reproduction binary prints a human-readable table to stdout
// and, when given a path, writes the same series as CSV so the results can
// be re-plotted.
#pragma once

#include <fstream>
#include <initializer_list>
#include <ostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace geogrid {

/// Streams rows of comma-separated values; quotes fields when needed.
class CsvWriter {
 public:
  /// Writes to an owned file. Throws std::runtime_error when the file
  /// cannot be opened.
  explicit CsvWriter(const std::string& path);

  /// Writes to a caller-owned stream (kept by reference).
  explicit CsvWriter(std::ostream& out) : out_(&out) {}

  void header(std::initializer_list<std::string_view> names) {
    write_fields(names.begin(), names.end());
  }

  /// Writes one row of already-rendered fields.
  void fields(const std::vector<std::string>& values) {
    write_fields(values.begin(), values.end());
  }

  /// Writes one row; accepts any streamable field types.
  template <typename... Fields>
  void row(const Fields&... fields) {
    std::vector<std::string> rendered;
    rendered.reserve(sizeof...(fields));
    (rendered.push_back(render(fields)), ...);
    write_fields(rendered.begin(), rendered.end());
  }

 private:
  template <typename T>
  static std::string render(const T& value) {
    std::ostringstream os;
    os << value;
    return os.str();
  }

  static std::string escape(std::string_view field);

  template <typename It>
  void write_fields(It first, It last) {
    bool leading = true;
    for (; first != last; ++first) {
      if (!leading) *out_ << ',';
      leading = false;
      *out_ << escape(*first);
    }
    *out_ << '\n';
  }

  std::ofstream file_;
  std::ostream* out_ = nullptr;
};

}  // namespace geogrid
