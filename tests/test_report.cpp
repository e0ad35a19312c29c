#include "analysis/report.h"

#include <gtest/gtest.h>

#include <sstream>

namespace dcprof::analysis {
namespace {

TEST(Table, RendersHeaderRuleAndRows) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"beta", "22"});
  const std::string out = t.render();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("---"), std::string::npos);
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 4);
}

TEST(Table, ColumnsAlign) {
  Table t({"n", "v"});
  t.add_row({"longname", "1"});
  t.add_row({"x", "22"});
  std::istringstream lines(t.render());
  std::string header;
  std::string rule;
  std::string row1;
  std::string row2;
  std::getline(lines, header);
  std::getline(lines, rule);
  std::getline(lines, row1);
  std::getline(lines, row2);
  EXPECT_EQ(row1.size(), row2.size());
}

TEST(Table, NumericCellsRightAlign) {
  Table t({"name", "count"});
  t.add_row({"a", "5"});
  t.add_row({"b", "12345"});
  std::istringstream lines(t.render());
  std::string skip;
  std::getline(lines, skip);
  std::getline(lines, skip);
  std::string row1;
  std::getline(lines, row1);
  // "5" is right-aligned under the 5-wide "count" column.
  EXPECT_EQ(row1.back(), '5');
  EXPECT_NE(row1[row1.size() - 2], '5');
}

TEST(Table, RowWidthMismatchThrows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only one"}), std::invalid_argument);
  EXPECT_THROW(t.add_row({"1", "2", "3"}), std::invalid_argument);
}

TEST(Table, CountsRows) {
  Table t({"a"});
  EXPECT_EQ(t.rows(), 0u);
  t.add_row({"x"});
  EXPECT_EQ(t.rows(), 1u);
}

TEST(Format, Percent) {
  EXPECT_EQ(format_percent(0.949), "94.9%");
  EXPECT_EQ(format_percent(0.0), "0.0%");
  EXPECT_EQ(format_percent(1.0), "100.0%");
  EXPECT_EQ(format_percent(-0.05), "-5.0%");
}

TEST(Format, CountGroupsThousands) {
  EXPECT_EQ(format_count(0), "0");
  EXPECT_EQ(format_count(999), "999");
  EXPECT_EQ(format_count(1000), "1,000");
  EXPECT_EQ(format_count(1234567), "1,234,567");
  EXPECT_EQ(format_count(12345678), "12,345,678");
}

}  // namespace
}  // namespace dcprof::analysis
