// Copyright 2026 The siot-trust Authors.

#include "common/config.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

namespace siot {
namespace {

TEST(ConfigTest, ParsesKeyValueLines) {
  auto config = Config::FromString("a = 1\nb = two\n");
  ASSERT_TRUE(config.ok());
  EXPECT_EQ(config->GetInt("a").value(), 1);
  EXPECT_EQ(config->GetString("b").value(), "two");
  EXPECT_EQ(config->size(), 2u);
}

TEST(ConfigTest, CommentsAndBlanksIgnored) {
  auto config = Config::FromString(
      "# full comment line\n"
      "\n"
      "key = value  # trailing comment\n");
  ASSERT_TRUE(config.ok());
  EXPECT_EQ(config->GetString("key").value(), "value");
}

TEST(ConfigTest, LaterKeysOverride) {
  auto config = Config::FromString("x = 1\nx = 2\n");
  ASSERT_TRUE(config.ok());
  EXPECT_EQ(config->GetInt("x").value(), 2);
}

TEST(ConfigTest, MissingEqualsIsError) {
  EXPECT_FALSE(Config::FromString("no equals sign\n").ok());
}

TEST(ConfigTest, EmptyKeyIsError) {
  EXPECT_FALSE(Config::FromString("= orphan\n").ok());
}

TEST(ConfigTest, TypedGetters) {
  auto config = Config::FromString(
      "i = -5\nd = 2.5\nbt = true\nbf = off\ns = text\n");
  ASSERT_TRUE(config.ok());
  EXPECT_EQ(config->GetInt("i").value(), -5);
  EXPECT_DOUBLE_EQ(config->GetDouble("d").value(), 2.5);
  EXPECT_TRUE(config->GetBool("bt").value());
  EXPECT_FALSE(config->GetBool("bf").value());
  EXPECT_EQ(config->GetString("s").value(), "text");
}

TEST(ConfigTest, BoolSpellings) {
  auto config = Config::FromString(
      "a = TRUE\nb = Yes\nc = 1\nd = FALSE\ne = no\nf = 0\n");
  ASSERT_TRUE(config.ok());
  EXPECT_TRUE(config->GetBool("a").value());
  EXPECT_TRUE(config->GetBool("b").value());
  EXPECT_TRUE(config->GetBool("c").value());
  EXPECT_FALSE(config->GetBool("d").value());
  EXPECT_FALSE(config->GetBool("e").value());
  EXPECT_FALSE(config->GetBool("f").value());
}

TEST(ConfigTest, MissingKeyIsNotFound) {
  Config config;
  EXPECT_TRUE(config.GetString("nope").status().IsNotFound());
  EXPECT_TRUE(config.GetInt("nope").status().IsNotFound());
}

TEST(ConfigTest, MalformedValueIsInvalidArgument) {
  auto config = Config::FromString("n = abc\n");
  ASSERT_TRUE(config.ok());
  EXPECT_TRUE(config->GetInt("n").status().IsInvalidArgument());
  EXPECT_TRUE(config->GetBool("n").status().IsInvalidArgument());
}

TEST(ConfigTest, DefaultedGetters) {
  auto config = Config::FromString("present = 3\n");
  ASSERT_TRUE(config.ok());
  EXPECT_EQ(config->GetIntOr("present", 9), 3);
  EXPECT_EQ(config->GetIntOr("absent", 9), 9);
  EXPECT_DOUBLE_EQ(config->GetDoubleOr("absent", 1.5), 1.5);
  EXPECT_EQ(config->GetStringOr("absent", "dft"), "dft");
  EXPECT_TRUE(config->GetBoolOr("absent", true));
}

TEST(ConfigTest, DefaultedGetterDiesOnMalformedPresentKey) {
  auto config = Config::FromString("n = abc\n");
  ASSERT_TRUE(config.ok());
  EXPECT_DEATH((void)config->GetIntOr("n", 0), "SIOT_CHECK failed");
}

TEST(ConfigTest, FromArgs) {
  const char* argv[] = {"steps=10", "rate = 0.5"};
  auto config = Config::FromArgs(2, argv);
  ASSERT_TRUE(config.ok());
  EXPECT_EQ(config->GetInt("steps").value(), 10);
  EXPECT_DOUBLE_EQ(config->GetDouble("rate").value(), 0.5);
}

TEST(ConfigTest, FromFile) {
  const std::string path = ::testing::TempDir() + "/siot_config_test.cfg";
  {
    std::ofstream out(path);
    out << "from_file = yes\n";
  }
  auto config = Config::FromFile(path);
  ASSERT_TRUE(config.ok());
  EXPECT_TRUE(config->GetBool("from_file").value());
  std::remove(path.c_str());
}

TEST(ConfigTest, FromMissingFileIsIoError) {
  auto config = Config::FromFile("/nonexistent/path/x.cfg");
  EXPECT_FALSE(config.ok());
  EXPECT_EQ(config.status().code(), StatusCode::kIoError);
}

}  // namespace
}  // namespace siot
