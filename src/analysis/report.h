// Plain-text rendering helpers: aligned tables and formatted numbers.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace dcprof::analysis {

/// A fixed-column text table with aligned rendering.
class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  void add_row(std::vector<std::string> cells);
  /// Renders with a header rule; numeric-looking cells right-align.
  std::string render() const;

  std::size_t rows() const { return rows_.size(); }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

std::string format_percent(double fraction);        // "94.9%"
std::string format_count(std::uint64_t n);          // "12,345"

}  // namespace dcprof::analysis
