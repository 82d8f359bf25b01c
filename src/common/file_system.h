#ifndef SSAGG_COMMON_FILE_SYSTEM_H_
#define SSAGG_COMMON_FILE_SYSTEM_H_

#include <memory>
#include <string>

#include "common/constants.h"
#include "common/status.h"

namespace ssagg {

/// Open flags for FileSystem::Open.
struct FileOpenFlags {
  bool read = true;
  bool write = false;
  bool create = false;
  bool truncate = false;
};

/// A positional-I/O file handle (POSIX pread/pwrite semantics). Thread-safe
/// for concurrent reads/writes at disjoint offsets, as required by the
/// temporary file manager and the block manager. Abstract so that decorators
/// (e.g. the fault-injecting file system in src/testing/) can interpose on
/// every I/O call.
class FileHandle {
 public:
  explicit FileHandle(std::string path) : path_(std::move(path)) {}
  virtual ~FileHandle() = default;

  FileHandle(const FileHandle &) = delete;
  FileHandle &operator=(const FileHandle &) = delete;

  virtual Status Read(void *buffer, idx_t bytes, idx_t offset) = 0;
  virtual Status Write(const void *buffer, idx_t bytes, idx_t offset) = 0;
  virtual Status Sync() = 0;
  virtual Status Truncate(idx_t size) = 0;
  virtual Result<idx_t> FileSize() = 0;
  const std::string &path() const { return path_; }

 protected:
  std::string path_;
};

/// Minimal file system abstraction. Every layer that performs file I/O
/// (buffer manager, temporary file manager, block manager, run serializer)
/// takes a FileSystem& instead of calling POSIX directly, so tests can
/// substitute a decorator that injects deterministic faults.
class FileSystem {
 public:
  virtual ~FileSystem() = default;

  virtual Result<std::unique_ptr<FileHandle>> Open(const std::string &path,
                                                   FileOpenFlags flags) = 0;
  virtual Status RemoveFile(const std::string &path) = 0;
  virtual bool FileExists(const std::string &path) = 0;
  virtual Status CreateDirectories(const std::string &path) = 0;
  virtual Result<idx_t> GetFileSize(const std::string &path) = 0;

  /// The process-wide local (POSIX) file system.
  static FileSystem &Default();
};

/// A "<pid>_<n>" token, unique across processes and across calls within a
/// process. Embed it in temporary-file names: spill directories are
/// routinely shared (several operators or buffer managers in one process,
/// concurrent test processes on one temp dir), and a colliding name lets
/// one owner truncate or overwrite another's live data.
std::string ProcessUniqueToken();

/// Direct POSIX implementation.
class LocalFileSystem : public FileSystem {
 public:
  Result<std::unique_ptr<FileHandle>> Open(const std::string &path,
                                           FileOpenFlags flags) override;
  Status RemoveFile(const std::string &path) override;
  bool FileExists(const std::string &path) override;
  Status CreateDirectories(const std::string &path) override;
  Result<idx_t> GetFileSize(const std::string &path) override;
};

}  // namespace ssagg

#endif  // SSAGG_COMMON_FILE_SYSTEM_H_
