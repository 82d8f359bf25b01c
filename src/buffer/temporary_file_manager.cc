#include "buffer/temporary_file_manager.h"

#include <algorithm>
#include <chrono>

#include "common/constants.h"
#include "observe/trace.h"

namespace ssagg {

namespace {
/// Nanoseconds spent in `fn` (a file-system call).
template <typename Fn>
uint64_t TimedNs(const Fn &fn) {
  auto start = std::chrono::steady_clock::now();
  fn();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}
}  // namespace

TemporaryFileManager::TemporaryFileManager(std::string directory,
                                           FileSystem &fs)
    : directory_(std::move(directory)),
      fs_(fs),
      token_(ProcessUniqueToken()) {
  MetricsRegistry &registry = MetricsRegistry::Global();
  key_spill_writes_ = registry.KeyId("io.spill_writes");
  key_spill_reads_ = registry.KeyId("io.spill_reads");
  key_spill_bytes_written_ = registry.KeyId("io.spill_bytes_written");
  key_spill_bytes_read_ = registry.KeyId("io.spill_bytes_read");
  key_spill_raw_bytes_ = registry.KeyId("io.spill_raw_bytes");
  // Every page is its own write, so these two read 0. They stay registered
  // because bench/ledger/ledger.cc divides one by the other for
  // io.pages_per_coalesced_write.
  (void)registry.KeyId("io.spill_coalesced_writes");
  (void)registry.KeyId("io.spill_coalesced_pages");
  key_spill_write_ns_ = registry.KeyId("io.spill_write_ns");
  key_spill_read_ns_ = registry.KeyId("io.spill_read_ns");
  hist_spill_write_latency_ =
      registry.HistogramId("io.spill_write_latency_ns");
  hist_spill_read_latency_ = registry.HistogramId("io.spill_read_latency_ns");
}

TemporaryFileManager::~TemporaryFileManager() {
  ScopedLock guard(lock_);
  if (fixed_file_) {
    std::string path = fixed_file_->path();
    fixed_file_.reset();
    (void)fs_.RemoveFile(path);
  }
  for (auto &entry : variable_blocks_) {
    (void)fs_.RemoveFile(VariableFilePath(entry.first));
  }
}

Status TemporaryFileManager::EnsureFixedFileLocked() {
  if (fixed_file_) {
    return Status::OK();
  }
  SSAGG_RETURN_NOT_OK(fs_.CreateDirectories(directory_));
  FileOpenFlags flags;
  flags.read = true;
  flags.write = true;
  flags.create = true;
  flags.truncate = true;
  SSAGG_ASSIGN_OR_RETURN(fixed_file_, fs_.Open(FixedFilePath(), flags));
  return Status::OK();
}

std::string TemporaryFileManager::FixedFilePath() const {
  return directory_ + "/ssagg_temp_" + token_ + ".tmp";
}

Result<idx_t> TemporaryFileManager::WriteFixedBlock(const FileBuffer &buffer) {
  SSAGG_DASSERT(buffer.size() == kPageSize);
  // Span name is part of the observability contract ("spill.write" appears
  // for every spilling query).
  TraceSpan span("spill.write", "io", kPageSize);
  FileHandle *file;
  idx_t slot;
  {
    // The handle pointer is guarded state; the positioned write itself runs
    // unlocked.
    ScopedLock guard(lock_);
    SSAGG_RETURN_NOT_OK(EnsureFixedFileLocked());
    file = fixed_file_.get();
    if (!free_slots_.empty()) {
      slot = free_slots_.back();
      free_slots_.pop_back();
      slot_reuses_++;
    } else {
      slot = slot_count_++;
    }
    used_slots_++;
    UpdatePeakLocked();
  }
  Status status;
  uint64_t ns = TimedNs([&]() {
    status = file->Write(buffer.data(), kPageSize, slot * kPageSize);
  });
  if (!status.ok()) {
    // A failed spill must not leak temp-file space: the caller keeps the
    // page in memory and propagates the error.
    FreeFixedSlot(slot);
    return status;
  }
  {
    ScopedLock guard(lock_);
    write_count_++;
  }
  RecordWrite(kPageSize, ns);
  return slot;
}

Status TemporaryFileManager::ReadFixedBlock(idx_t slot, FileBuffer &buffer) {
  SSAGG_DASSERT(buffer.size() == kPageSize);
  TraceSpan span("spill.read", "io");
  FileHandle *file;
  {
    ScopedLock guard(lock_);
    SSAGG_ASSERT(fixed_file_ != nullptr);
    file = fixed_file_.get();
  }
  Status status;
  uint64_t ns = TimedNs([&]() {
    status = file->Read(buffer.data(), kPageSize, slot * kPageSize);
  });
  SSAGG_RETURN_NOT_OK(status);
  FreeFixedSlot(slot);
  {
    ScopedLock guard(lock_);
    read_count_++;
  }
  RecordRead(kPageSize, ns);
  return Status::OK();
}

void TemporaryFileManager::RecordWrite(idx_t bytes, uint64_t ns) {
  bytes_written_.fetch_add(bytes, std::memory_order_relaxed);
  write_ns_.fetch_add(ns, std::memory_order_relaxed);
  MetricsRegistry &registry = MetricsRegistry::Global();
  registry.Add(key_spill_writes_, 1);
  registry.Add(key_spill_bytes_written_, bytes);
  registry.Add(key_spill_raw_bytes_, bytes);
  registry.Add(key_spill_write_ns_, ns);
  registry.Record(hist_spill_write_latency_, ns);
}

void TemporaryFileManager::RecordRead(idx_t bytes, uint64_t ns) {
  bytes_read_.fetch_add(bytes, std::memory_order_relaxed);
  read_ns_.fetch_add(ns, std::memory_order_relaxed);
  MetricsRegistry &registry = MetricsRegistry::Global();
  registry.Add(key_spill_reads_, 1);
  registry.Add(key_spill_bytes_read_, bytes);
  registry.Add(key_spill_read_ns_, ns);
  registry.Record(hist_spill_read_latency_, ns);
}

void TemporaryFileManager::FreeFixedSlot(idx_t slot) {
  ScopedLock guard(lock_);
  free_slots_.push_back(slot);
  SSAGG_DASSERT(used_slots_ > 0);
  used_slots_--;
}

std::string TemporaryFileManager::VariableFilePath(block_id_t id) const {
  return directory_ + "/ssagg_temp_var_" + token_ + "_" + std::to_string(id) +
         ".tmp";
}

Status TemporaryFileManager::WriteVariableBlock(block_id_t id,
                                                const FileBuffer &buffer) {
  TraceSpan span("spill.write", "io", buffer.size());
  {
    ScopedLock guard(lock_);
    SSAGG_RETURN_NOT_OK(fs_.CreateDirectories(directory_));
    variable_blocks_[id] = buffer.size();
    write_count_++;
    variable_files_created_++;
    UpdatePeakLocked();
  }
  FileOpenFlags flags;
  flags.read = false;
  flags.write = true;
  flags.create = true;
  flags.truncate = true;
  Status status;
  uint64_t ns = TimedNs([&]() {
    auto file = fs_.Open(VariableFilePath(id), flags);
    status = file.ok() ? file.value()->Write(buffer.data(), buffer.size(), 0)
                       : file.status();
  });
  if (!status.ok()) {
    // Roll back the registration and drop any partially written file so the
    // failed spill leaves no temp-storage footprint.
    FreeVariableBlock(id);
    return status;
  }
  RecordWrite(buffer.size(), ns);
  return Status::OK();
}

Status TemporaryFileManager::ReadVariableBlock(block_id_t id,
                                               FileBuffer &buffer) {
  TraceSpan span("spill.read", "io", buffer.size());
  {
    ScopedLock guard(lock_);
    auto it = variable_blocks_.find(id);
    if (it == variable_blocks_.end()) {
      return Status::Internal("read of unknown variable temp block " +
                              std::to_string(id));
    }
    if (it->second != buffer.size()) {
      return Status::Internal("variable temp block size mismatch");
    }
  }
  FileOpenFlags flags;
  Status status;
  uint64_t ns = TimedNs([&]() {
    auto file = fs_.Open(VariableFilePath(id), flags);
    status = file.ok() ? file.value()->Read(buffer.data(), buffer.size(), 0)
                       : file.status();
  });
  SSAGG_RETURN_NOT_OK(status);
  FreeVariableBlock(id);
  {
    ScopedLock guard(lock_);
    read_count_++;
  }
  RecordRead(buffer.size(), ns);
  return Status::OK();
}

void TemporaryFileManager::FreeVariableBlock(block_id_t id) {
  ScopedLock guard(lock_);
  auto it = variable_blocks_.find(id);
  if (it == variable_blocks_.end()) {
    return;
  }
  variable_blocks_.erase(it);
  (void)fs_.RemoveFile(VariableFilePath(id));
}

idx_t TemporaryFileManager::UsedSlots() const {
  ScopedLock guard(lock_);
  return used_slots_;
}

idx_t TemporaryFileManager::VariableBlockCount() const {
  ScopedLock guard(lock_);
  return variable_blocks_.size();
}

idx_t TemporaryFileManager::WriteCount() const {
  ScopedLock guard(lock_);
  return write_count_;
}

idx_t TemporaryFileManager::ReadCount() const {
  ScopedLock guard(lock_);
  return read_count_;
}

idx_t TemporaryFileManager::SlotReuses() const {
  ScopedLock guard(lock_);
  return slot_reuses_;
}

idx_t TemporaryFileManager::VariableFilesCreated() const {
  ScopedLock guard(lock_);
  return variable_files_created_;
}

idx_t TemporaryFileManager::CurrentSize() const {
  ScopedLock guard(lock_);
  idx_t variable = 0;
  for (auto &entry : variable_blocks_) {
    variable += entry.second;
  }
  return used_slots_ * kPageSize + variable;
}

idx_t TemporaryFileManager::PeakSize() const {
  ScopedLock guard(lock_);
  return peak_size_;
}

void TemporaryFileManager::UpdatePeakLocked() {
  idx_t variable = 0;
  for (auto &entry : variable_blocks_) {
    variable += entry.second;
  }
  peak_size_ = std::max(peak_size_, used_slots_ * kPageSize + variable);
}

}  // namespace ssagg