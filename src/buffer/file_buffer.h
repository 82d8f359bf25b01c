#ifndef SSAGG_BUFFER_FILE_BUFFER_H_
#define SSAGG_BUFFER_FILE_BUFFER_H_

#include <memory>

#include "common/constants.h"
#include "common/status.h"

// SSAGG_ASAN is defined when AddressSanitizer instruments the build; the
// buffer manager then poisons idle page frames (DESIGN.md section 4).
#if defined(__SANITIZE_ADDRESS__)
#define SSAGG_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define SSAGG_ASAN 1
#endif
#endif

namespace ssagg {

class BufferManager;

/// An in-memory buffer that backs one page, on its own anonymous mapping:
/// zero-filled when new, page-aligned, and outside the malloc heap, so that
/// unmapping gives the memory back to the OS exactly.
/// Buffers for fixed-size pages are all kPageSize bytes, which lets the
/// buffer manager hand an evicted buffer straight to the next same-size
/// allocation ("buffer reuse", Section III) and keep released frames in its
/// frame pool for later ones.
class FileBuffer {
 public:
  /// A buffer that maps and unmaps its own memory: variable-size pages, and
  /// any buffer built outside a buffer manager. OutOfMemory when the kernel
  /// refuses the mapping.
  static Result<std::unique_ptr<FileBuffer>> Create(idx_t size);

  /// Unmaps the buffer, or hands a pooled frame back to its manager.
  ~FileBuffer();

  FileBuffer(const FileBuffer &) = delete;
  FileBuffer &operator=(const FileBuffer &) = delete;

  data_ptr_t data() { return data_; }
  const_data_ptr_t data() const { return data_; }
  idx_t size() const { return size_; }

 private:
  friend class BufferManager;

  FileBuffer(data_ptr_t data, idx_t size, BufferManager *pool)
      : data_(data), size_(size), pool_(pool) {}

  data_ptr_t data_;
  idx_t size_;
  /// The manager whose frame pool this kPageSize frame returns to; nullptr
  /// when the buffer owns its mapping.
  BufferManager *pool_;
};

}  // namespace ssagg

#endif  // SSAGG_BUFFER_FILE_BUFFER_H_
