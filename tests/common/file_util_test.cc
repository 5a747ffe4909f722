// Copyright 2026 The siot-trust Authors.
// ReadFileToString: the one reader every checkpoint and WAL segment goes
// through on restart. Sized from fstat and filled by pread, it must
// return every byte of empty, small and multi-megabyte files, read on
// past a size that understates the file, and name a missing file as an
// IoError.

#include "common/file_util.h"

#include <string>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "tests/test_dir.h"

namespace siot {
namespace {

/// `size` seeded bytes, every value 0–255 included.
std::string RandomBytes(std::size_t size, std::uint64_t seed) {
  Rng rng(seed);
  std::string bytes(size, '\0');
  for (char& byte : bytes) byte = static_cast<char>(rng.NextBounded(256));
  return bytes;
}

TEST(FileUtilTest, ReadsEmptySmallAndMultiMegabyteFiles) {
  const std::string dir = MakeTestDir("file_util_read");
  ASSERT_TRUE(CreateDirectories(dir).ok());
  const std::size_t sizes[] = {0, 1, 4095, 4096, 4097, 475 * 1024,
                               (5 << 20) + 3};
  for (const std::size_t size : sizes) {
    const std::string path = dir + "/f" + std::to_string(size);
    const std::string bytes = RandomBytes(size, size + 1);
    ASSERT_TRUE(WriteFileAtomic(path, bytes).ok());
    const StatusOr<std::string> read = ReadFileToString(path);
    ASSERT_TRUE(read.ok()) << read.status().ToString();
    EXPECT_EQ(read.value().size(), size);
    EXPECT_TRUE(read.value() == bytes) << "size " << size;
  }
}

TEST(FileUtilTest, ReadsPastASizeThatUnderstatesTheFile) {
  // The reader sizes its buffer from fstat but reads on to EOF, as for a
  // file that grew after the fstat. Linux procfs files report size 0
  // and still hold bytes: this process's command line, NUL-separated.
  const StatusOr<std::string> read = ReadFileToString("/proc/self/cmdline");
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  const std::string& cmdline = read.value();
  ASSERT_FALSE(cmdline.empty());
  EXPECT_EQ(cmdline.back(), '\0');
  EXPECT_NE(cmdline.find("file_util_test"), std::string::npos);
}

TEST(FileUtilTest, MissingFileIsIoError) {
  const std::string dir = MakeTestDir("file_util_missing");
  const StatusOr<std::string> read = ReadFileToString(dir + "/absent");
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kIoError)
      << read.status().ToString();
  EXPECT_NE(read.status().message().find("cannot open for read"),
            std::string::npos);
  EXPECT_NE(read.status().message().find("absent"), std::string::npos);
}

}  // namespace
}  // namespace siot
