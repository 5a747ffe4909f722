// Copyright 2026 The siot-trust Authors.

#include "common/string_util.h"

#include <gtest/gtest.h>

namespace siot {
namespace {

TEST(SplitTest, BasicFields) {
  EXPECT_EQ(Split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
}

TEST(SplitTest, KeepsEmptyFields) {
  EXPECT_EQ(Split("a,,b", ','), (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(Split(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(SplitTest, NoSeparator) {
  EXPECT_EQ(Split("abc", ','), (std::vector<std::string>{"abc"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
}

TEST(TrimTest, StripsBothEnds) {
  EXPECT_EQ(Trim("  hi  "), "hi");
  EXPECT_EQ(Trim("\t\nhi\r "), "hi");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim("inner space kept"), "inner space kept");
}

TEST(ToLowerTest, AsciiOnly) {
  EXPECT_EQ(ToLower("MiXeD 123"), "mixed 123");
}

TEST(ParseIntTest, ValidValues) {
  EXPECT_EQ(ParseInt("42").value(), 42);
  EXPECT_EQ(ParseInt("-17").value(), -17);
  EXPECT_EQ(ParseInt("  8 ").value(), 8);
  EXPECT_EQ(ParseInt("0").value(), 0);
}

TEST(ParseIntTest, Invalid) {
  EXPECT_FALSE(ParseInt("").ok());
  EXPECT_FALSE(ParseInt("12x").ok());
  EXPECT_FALSE(ParseInt("4.5").ok());
  EXPECT_FALSE(ParseInt("abc").ok());
}

TEST(ParseIntTest, Overflow) {
  EXPECT_TRUE(ParseInt("999999999999999999999999").status().IsOutOfRange());
}

TEST(ParseDoubleTest, ValidValues) {
  EXPECT_DOUBLE_EQ(ParseDouble("3.5").value(), 3.5);
  EXPECT_DOUBLE_EQ(ParseDouble("-0.25").value(), -0.25);
  EXPECT_DOUBLE_EQ(ParseDouble("1e3").value(), 1000.0);
  EXPECT_DOUBLE_EQ(ParseDouble(" 7 ").value(), 7.0);
}

TEST(ParseDoubleTest, Invalid) {
  EXPECT_FALSE(ParseDouble("").ok());
  EXPECT_FALSE(ParseDouble("1.2.3").ok());
  EXPECT_FALSE(ParseDouble("x").ok());
}

TEST(StrFormatTest, FormatsLikePrintf) {
  EXPECT_EQ(StrFormat("%d-%s", 3, "abc"), "3-abc");
  EXPECT_EQ(StrFormat("%.2f", 3.14159), "3.14");
  EXPECT_EQ(StrFormat("empty"), "empty");
}

TEST(FormatDoubleTest, Decimals) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatDouble(1.0, 0), "1");
}

TEST(FormatPercentTest, MatchesPaperStyle) {
  // The paper's Table 2 prints e.g. 57.89%.
  EXPECT_EQ(FormatPercent(0.5789), "57.89%");
  EXPECT_EQ(FormatPercent(1.0), "100.00%");
  EXPECT_EQ(FormatPercent(0.0), "0.00%");
  EXPECT_EQ(FormatPercent(0.5, 1), "50.0%");
}

}  // namespace
}  // namespace siot
