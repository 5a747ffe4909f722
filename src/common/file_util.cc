// Copyright 2026 The siot-trust Authors.

#include "common/file_util.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <system_error>

namespace siot {

std::string ErrnoMessage(const std::string& what, const std::string& path) {
  return what + " " + path + ": " + std::strerror(errno);
}

Status WriteFully(int fd, const char* data, std::size_t size,
                  const std::string& path) {
  std::size_t written = 0;
  while (written < size) {
    const ::ssize_t n = ::write(fd, data + written, size - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(ErrnoMessage("write failed", path));
    }
    written += static_cast<std::size_t>(n);
  }
  return Status::OK();
}

StatusOr<std::string> ReadFileToString(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return Status::IoError("cannot open for read: " + path);
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::IoError("read failed: " + path);
  }
  // Sized from the file, plus a byte so that reaching EOF on a file that
  // did not grow takes no second allocation; read on past it if it grew.
  const auto size = static_cast<std::size_t>(std::max<::off_t>(st.st_size, 0));
  std::string out(size + 1, '\0');
  std::size_t filled = 0;
  while (true) {
    if (filled == out.size()) out.resize(out.size() * 2);
    const ::ssize_t n = ::pread(fd, out.data() + filled, out.size() - filled,
                                static_cast<::off_t>(filled));
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return Status::IoError("read failed: " + path);
    }
    if (n == 0) break;
    filled += static_cast<std::size_t>(n);
  }
  ::close(fd);
  out.resize(filled);
  return out;
}

bool FileExists(const std::string& path) {
  std::error_code ec;
  return std::filesystem::exists(path, ec);
}

Status CreateDirectories(const std::string& path) {
  std::error_code ec;
  std::filesystem::create_directories(path, ec);
  if (ec) {
    return Status::IoError("cannot create directory " + path + ": " +
                           ec.message());
  }
  return Status::OK();
}

Status RemoveFileIfExists(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove(path, ec);
  if (ec) {
    return Status::IoError("cannot remove " + path + ": " + ec.message());
  }
  return Status::OK();
}

Status WriteFileAtomic(const std::string& path, std::string_view contents) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::IoError(ErrnoMessage("cannot open for write", tmp));
  }
  const Status written = WriteFully(fd, contents.data(), contents.size(),
                                    tmp);
  if (!written.ok()) {
    ::close(fd);
    return written;
  }
  if (::fsync(fd) != 0) {
    ::close(fd);
    return Status::IoError(ErrnoMessage("fsync failed", tmp));
  }
  if (::close(fd) != 0) {
    return Status::IoError(ErrnoMessage("close failed", tmp));
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::IoError(ErrnoMessage("rename failed", tmp));
  }
  const std::string parent =
      std::filesystem::path(path).parent_path().string();
  return SyncDirectory(parent.empty() ? "." : parent);
}

Status SyncDirectory(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    return Status::IoError(ErrnoMessage("cannot open directory", path));
  }
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) return Status::IoError(ErrnoMessage("fsync failed", path));
  return Status::OK();
}

}  // namespace siot
