// Copyright 2026 The siot-trust Authors.

#include "common/table.h"

#include <gtest/gtest.h>

namespace siot {
namespace {

TEST(TextTableTest, RendersAlignedColumns) {
  TextTable t("Demo");
  t.SetHeader({"Metric", "Facebook", "Twitter"});
  t.AddRow({"Nodes", "347", "244"});
  t.AddRow({"Average Degree", "29.04", "20.31"});
  const std::string out = t.Render();
  EXPECT_NE(out.find("Demo"), std::string::npos);
  EXPECT_NE(out.find("Metric"), std::string::npos);
  EXPECT_NE(out.find("29.04"), std::string::npos);
  // Header separator line present.
  EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(TextTableTest, NumericRowHelper) {
  TextTable t;
  t.SetHeader({"label", "a", "b"});
  t.AddRow("row", {1.23456, 2.0}, 2);
  const std::string out = t.Render();
  EXPECT_NE(out.find("1.23"), std::string::npos);
  EXPECT_NE(out.find("2.00"), std::string::npos);
}

TEST(TextTableTest, RowWidthMismatchDies) {
  TextTable t;
  t.SetHeader({"a", "b"});
  EXPECT_DEATH(t.AddRow({"only one"}), "SIOT_CHECK failed");
}

TEST(TextTableTest, HeaderAfterRowsDies) {
  TextTable t;
  t.AddRow({"x"});
  EXPECT_DEATH(t.SetHeader({"a"}), "SIOT_CHECK failed");
}

TEST(AsciiChartTest, RendersSeriesGlyphsAndLegend) {
  const std::vector<double> xs = {0, 1, 2, 3};
  const std::vector<std::pair<std::string, std::vector<double>>> series = {
      {"up", {0.0, 1.0, 2.0, 3.0}},
      {"down", {3.0, 2.0, 1.0, 0.0}},
  };
  const std::string chart = RenderAsciiChart(xs, series, 40, 10);
  EXPECT_NE(chart.find('*'), std::string::npos);
  EXPECT_NE(chart.find('o'), std::string::npos);
  EXPECT_NE(chart.find("up"), std::string::npos);
  EXPECT_NE(chart.find("down"), std::string::npos);
}

TEST(AsciiChartTest, EmptyInputs) {
  EXPECT_EQ(RenderAsciiChart({}, {}), "(empty chart)\n");
}

TEST(AsciiChartTest, ConstantSeriesDoesNotDivideByZero) {
  const std::vector<double> xs = {0, 1};
  const std::string chart =
      RenderAsciiChart(xs, {{"flat", {1.0, 1.0}}}, 20, 5);
  EXPECT_FALSE(chart.empty());
}

TEST(AsciiChartTest, MismatchedSeriesLengthDies) {
  const std::vector<double> xs = {0, 1, 2};
  EXPECT_DEATH(RenderAsciiChart(xs, {{"bad", {1.0}}}), "SIOT_CHECK failed");
}

}  // namespace
}  // namespace siot
