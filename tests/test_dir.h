// Copyright 2026 The siot-trust Authors.
// Scratch directories for tests that persist to disk. The name carries
// the process id, so two runs of one test binary at once (a sanitizer
// build beside ctest, or one binary started twice) never delete each
// other's files.

#ifndef SIOT_TESTS_TEST_DIR_H_
#define SIOT_TESTS_TEST_DIR_H_

#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>
#include <vector>

#include <gtest/gtest.h>

namespace siot {

/// Returns `<TempDir>siot_<tag>.<pid>`, removed now and again when the
/// process exits (per-process names would otherwise pile up).
inline std::string MakeTestDir(const std::string& tag) {
  struct RemoveAtExit {
    std::vector<std::string> dirs;
    ~RemoveAtExit() {
      std::error_code ignored;
      for (const std::string& dir : dirs) {
        std::filesystem::remove_all(dir, ignored);
      }
    }
  };
  static RemoveAtExit made;
  const std::string dir = ::testing::TempDir() + "siot_" + tag + "." +
                          std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  made.dirs.push_back(dir);
  return dir;
}

}  // namespace siot

#endif  // SIOT_TESTS_TEST_DIR_H_
