#include "analysis/report.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <sstream>
#include <stdexcept>

namespace dcprof::analysis {

Table::Table(std::vector<std::string> headers)
    : headers_(std::move(headers)) {}

void Table::add_row(std::vector<std::string> cells) {
  if (cells.size() != headers_.size()) {
    throw std::invalid_argument("table row width mismatch");
  }
  rows_.push_back(std::move(cells));
}

namespace {
bool looks_numeric(const std::string& s) {
  if (s.empty()) return false;
  for (const char c : s) {
    if (std::isdigit(static_cast<unsigned char>(c)) == 0 && c != '.' &&
        c != ',' && c != '%' && c != '-' && c != '+' && c != 'e' && c != 'x') {
      return false;
    }
  }
  return true;
}
}  // namespace

std::string Table::render() const {
  std::vector<std::size_t> width(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    width[c] = headers_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      width[c] = std::max(width[c], row[c].size());
    }
  }
  std::ostringstream out;
  const auto emit = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c > 0) out << "  ";
      const auto pad = width[c] - row[c].size();
      if (looks_numeric(row[c])) {
        out << std::string(pad, ' ') << row[c];
      } else {
        out << row[c] << std::string(pad, ' ');
      }
    }
    out << '\n';
  };
  emit(headers_);
  std::size_t total = 0;
  for (const auto w : width) total += w + 2;
  out << std::string(total > 2 ? total - 2 : 0, '-') << '\n';
  for (const auto& row : rows_) emit(row);
  return out.str();
}

std::string format_percent(double fraction) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.1f%%", fraction * 100.0);
  return buf;
}

std::string format_count(std::uint64_t n) {
  std::string digits = std::to_string(n);
  std::string out;
  out.reserve(digits.size() + digits.size() / 3);
  std::size_t lead = digits.size() % 3;
  if (lead == 0) lead = 3;
  for (std::size_t i = 0; i < digits.size(); ++i) {
    if (i != 0 && (i - lead) % 3 == 0 && i >= lead) out += ',';
    out += digits[i];
  }
  return out;
}

}  // namespace dcprof::analysis
