// Copyright 2026 The siot-trust Authors.

#include "trust/task.h"

#include <gtest/gtest.h>

namespace siot::trust {
namespace {

TEST(TaskTest, CreateNormalizesWeights) {
  auto task = Task::Create(0, "traffic", {{0, 2.0}, {1, 1.0}, {2, 1.0}});
  ASSERT_TRUE(task.ok());
  EXPECT_EQ(task->characteristic_count(), 3u);
  EXPECT_DOUBLE_EQ(task->WeightOf(0), 0.5);
  EXPECT_DOUBLE_EQ(task->WeightOf(1), 0.25);
  EXPECT_DOUBLE_EQ(task->WeightOf(2), 0.25);
}

TEST(TaskTest, PartsSortedById) {
  auto task = Task::Create(0, "t", {{5, 1.0}, {1, 1.0}, {3, 1.0}});
  ASSERT_TRUE(task.ok());
  EXPECT_EQ(task->parts()[0].id, 1);
  EXPECT_EQ(task->parts()[1].id, 3);
  EXPECT_EQ(task->parts()[2].id, 5);
}

TEST(TaskTest, MaskMatchesCharacteristics) {
  auto task = Task::CreateUniform(0, "t", {0, 3, 7});
  ASSERT_TRUE(task.ok());
  EXPECT_EQ(task->mask(), (1ull << 0) | (1ull << 3) | (1ull << 7));
  EXPECT_TRUE(task->HasCharacteristic(3));
  EXPECT_FALSE(task->HasCharacteristic(2));
}

TEST(TaskTest, WeightOfAbsentIsZero) {
  auto task = Task::CreateUniform(0, "t", {1});
  ASSERT_TRUE(task.ok());
  EXPECT_DOUBLE_EQ(task->WeightOf(2), 0.0);
}

TEST(TaskTest, EmptyRejected) {
  EXPECT_FALSE(Task::Create(0, "empty", {}).ok());
}

TEST(TaskTest, DuplicateCharacteristicRejected) {
  EXPECT_FALSE(Task::Create(0, "dup", {{1, 1.0}, {1, 2.0}}).ok());
}

TEST(TaskTest, NonPositiveWeightRejected) {
  EXPECT_FALSE(Task::Create(0, "w0", {{1, 0.0}}).ok());
  EXPECT_FALSE(Task::Create(0, "wneg", {{1, -1.0}}).ok());
}

TEST(TaskTest, OutOfRangeCharacteristicRejected) {
  EXPECT_TRUE(
      Task::Create(0, "hi", {{64, 1.0}}).status().IsOutOfRange());
  EXPECT_TRUE(Task::Create(0, "edge", {{63, 1.0}}).ok());
}

TEST(TaskTest, CoverageQueries) {
  auto task = Task::CreateUniform(0, "t", {1, 2}).value();
  EXPECT_TRUE(task.CoveredBy(0b0110));
  EXPECT_TRUE(task.CoveredBy(0b1111));
  EXPECT_FALSE(task.CoveredBy(0b0010));
  EXPECT_TRUE(task.Overlaps(0b0010));
  EXPECT_FALSE(task.Overlaps(0b1000));
}

TEST(TaskCatalogTest, AddAssignsDenseIds) {
  TaskCatalog catalog;
  EXPECT_EQ(catalog.AddUniform("gps", {0}).value(), 0u);
  EXPECT_EQ(catalog.AddUniform("image", {1}).value(), 1u);
  EXPECT_EQ(catalog.size(), 2u);
  EXPECT_EQ(catalog.Get(0).name(), "gps");
  EXPECT_EQ(catalog.Get(1).name(), "image");
}

TEST(TaskCatalogTest, DuplicateNameRejected) {
  TaskCatalog catalog;
  ASSERT_TRUE(catalog.AddUniform("gps", {0}).ok());
  EXPECT_TRUE(catalog.AddUniform("gps", {1}).status().code() ==
              StatusCode::kAlreadyExists);
}

TEST(TaskCatalogTest, FindByName) {
  TaskCatalog catalog;
  ASSERT_TRUE(catalog.AddUniform("gps", {0}).ok());
  EXPECT_EQ(catalog.FindByName("gps").value(), 0u);
  EXPECT_TRUE(catalog.FindByName("nope").status().IsNotFound());
}

TEST(TaskCatalogTest, GetOutOfRangeDies) {
  TaskCatalog catalog;
  EXPECT_DEATH(catalog.Get(0), "SIOT_CHECK failed");
}

TEST(MaskSizeTest, Popcount) {
  EXPECT_EQ(MaskSize(0), 0u);
  EXPECT_EQ(MaskSize(0b1011), 3u);
  EXPECT_EQ(MaskSize(~0ull), 64u);
}

// The paper's §4.2 example: real-time traffic monitoring requires the GPS
// and image characteristics that previous tasks exercised separately.
TEST(TaskModelTest, PaperTrafficExample) {
  TaskCatalog catalog;
  const TaskId gps = catalog.AddUniform("gps-task", {0}).value();
  const TaskId image = catalog.AddUniform("image-task", {1}).value();
  const TaskId traffic = catalog.AddUniform("traffic", {0, 1}).value();
  EXPECT_TRUE(catalog.Get(traffic).CoveredBy(catalog.Get(gps).mask() |
                                             catalog.Get(image).mask()));
  EXPECT_FALSE(catalog.Get(traffic).CoveredBy(catalog.Get(gps).mask()));
}

}  // namespace
}  // namespace siot::trust
