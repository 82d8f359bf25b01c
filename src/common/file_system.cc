#include "common/file_system.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>

namespace ssagg {

std::string ProcessUniqueToken() {
  static std::atomic<uint64_t> next_token{0};
  return std::to_string(static_cast<uint64_t>(::getpid())) + "_" +
         std::to_string(next_token.fetch_add(1, std::memory_order_relaxed));
}

namespace {

std::string ErrnoMessage(const std::string &context) {
  return context + ": " + std::strerror(errno);
}

/// POSIX file handle; closes the descriptor on destruction.
class LocalFileHandle : public FileHandle {
 public:
  LocalFileHandle(int fd, std::string path)
      : FileHandle(std::move(path)), fd_(fd) {}
  ~LocalFileHandle() override {
    if (fd_ >= 0) {
      ::close(fd_);
    }
  }

  Status Read(void *buffer, idx_t bytes, idx_t offset) override {
    auto *dest = static_cast<uint8_t *>(buffer);
    idx_t total = 0;
    while (total < bytes) {
      ssize_t n = ::pread(fd_, dest + total, bytes - total,
                          static_cast<off_t>(offset + total));
      if (n < 0) {
        if (errno == EINTR) {
          continue;
        }
        return Status::IOError(ErrnoMessage("pread " + path_));
      }
      if (n == 0) {
        return Status::IOError("unexpected EOF reading " + path_);
      }
      total += static_cast<idx_t>(n);
    }
    return Status::OK();
  }

  Status Write(const void *buffer, idx_t bytes, idx_t offset) override {
    const auto *src = static_cast<const uint8_t *>(buffer);
    idx_t total = 0;
    while (total < bytes) {
      ssize_t n = ::pwrite(fd_, src + total, bytes - total,
                           static_cast<off_t>(offset + total));
      if (n < 0) {
        if (errno == EINTR) {
          continue;
        }
        return Status::IOError(ErrnoMessage("pwrite " + path_));
      }
      total += static_cast<idx_t>(n);
    }
    return Status::OK();
  }

  Status Sync() override {
    if (::fdatasync(fd_) != 0) {
      return Status::IOError(ErrnoMessage("fdatasync " + path_));
    }
    return Status::OK();
  }

  Status Truncate(idx_t size) override {
    if (::ftruncate(fd_, static_cast<off_t>(size)) != 0) {
      return Status::IOError(ErrnoMessage("ftruncate " + path_));
    }
    return Status::OK();
  }

  Result<idx_t> FileSize() override {
    struct stat st;
    if (::fstat(fd_, &st) != 0) {
      return Status::IOError(ErrnoMessage("fstat " + path_));
    }
    return static_cast<idx_t>(st.st_size);
  }

 private:
  int fd_;
};

}  // namespace

FileSystem &FileSystem::Default() {
  static LocalFileSystem local;
  return local;
}

Result<std::unique_ptr<FileHandle>> LocalFileSystem::Open(
    const std::string &path, FileOpenFlags flags) {
  int oflags = 0;
  if (flags.read && flags.write) {
    oflags = O_RDWR;
  } else if (flags.write) {
    oflags = O_WRONLY;
  } else {
    oflags = O_RDONLY;
  }
  if (flags.create) {
    oflags |= O_CREAT;
  }
  if (flags.truncate) {
    oflags |= O_TRUNC;
  }
  int fd = ::open(path.c_str(), oflags, 0644);
  if (fd < 0) {
    return Status::IOError(ErrnoMessage("open " + path));
  }
  return std::unique_ptr<FileHandle>(new LocalFileHandle(fd, path));
}

Status LocalFileSystem::RemoveFile(const std::string &path) {
  if (::unlink(path.c_str()) != 0 && errno != ENOENT) {
    return Status::IOError(ErrnoMessage("unlink " + path));
  }
  return Status::OK();
}

bool LocalFileSystem::FileExists(const std::string &path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

Status LocalFileSystem::CreateDirectories(const std::string &path) {
  std::string partial;
  for (idx_t i = 0; i <= path.size(); i++) {
    if (i == path.size() || path[i] == '/') {
      if (!partial.empty() && !FileExists(partial)) {
        if (::mkdir(partial.c_str(), 0755) != 0 && errno != EEXIST) {
          return Status::IOError(ErrnoMessage("mkdir " + partial));
        }
      }
      if (i < path.size()) {
        partial += '/';
      }
      continue;
    }
    partial += path[i];
  }
  return Status::OK();
}

Result<idx_t> LocalFileSystem::GetFileSize(const std::string &path) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) {
    return Status::IOError(ErrnoMessage("stat " + path));
  }
  return static_cast<idx_t>(st.st_size);
}

}  // namespace ssagg
