#include "common/async_io.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "buffer/buffer_manager.h"
#include "buffer/temporary_file_manager.h"
#include "common/file_system.h"
#include "testing/fault_fs.h"
#include "testing/fault_injector.h"

namespace ssagg {
namespace {

class AsyncIoTest : public ::testing::TestWithParam<IoBackendKind> {
 protected:
  void SetUp() override {
    temp_dir_ =
        ::testing::TempDir() + "ssagg_aio_test_" + std::to_string(::getpid());
    (void)FileSystem::Default().CreateDirectories(temp_dir_);
    backend_ = CreateIoBackend(GetParam(), 2);
  }

  std::unique_ptr<FileHandle> OpenScratch(const std::string &name) {
    FileOpenFlags flags;
    flags.read = true;
    flags.write = true;
    flags.create = true;
    flags.truncate = true;
    auto file = FileSystem::Default().Open(temp_dir_ + "/" + name, flags);
    EXPECT_TRUE(file.ok()) << file.status().ToString();
    return file.MoveValue();
  }

  std::string temp_dir_;
  std::unique_ptr<AsyncIoBackend> backend_;
};

TEST_P(AsyncIoTest, WriteReadRoundtrip) {
  auto file = OpenScratch("roundtrip.bin");
  constexpr idx_t kChunk = 64 * 1024;
  constexpr idx_t kChunks = 8;
  std::vector<std::vector<data_t>> payloads(kChunks);
  std::vector<IoCompletionPtr> writes;
  for (idx_t i = 0; i < kChunks; i++) {
    payloads[i].assign(kChunk, static_cast<data_t>('a' + i));
    IoRequest request;
    request.kind = IoRequest::Kind::kWrite;
    request.file = file.get();
    request.buffer = payloads[i].data();
    request.bytes = kChunk;
    request.offset = i * kChunk;
    writes.push_back(backend_->Submit(std::move(request)));
  }
  backend_->Drain();
  for (auto &write : writes) {
    EXPECT_TRUE(write->Wait().ok());
  }
  EXPECT_EQ(backend_->InFlight(), 0u);
  // Read everything back (also async) and verify byte identity.
  std::vector<data_t> readback(kChunks * kChunk, 0);
  std::vector<IoCompletionPtr> reads;
  for (idx_t i = 0; i < kChunks; i++) {
    IoRequest request;
    request.kind = IoRequest::Kind::kRead;
    request.file = file.get();
    request.buffer = readback.data() + i * kChunk;
    request.bytes = kChunk;
    request.offset = i * kChunk;
    reads.push_back(backend_->Submit(std::move(request)));
  }
  for (auto &read : reads) {
    ASSERT_TRUE(read->Wait().ok());
  }
  for (idx_t i = 0; i < kChunks; i++) {
    EXPECT_EQ(readback[i * kChunk], static_cast<data_t>('a' + i));
    EXPECT_EQ(readback[(i + 1) * kChunk - 1], static_cast<data_t>('a' + i));
  }
}

TEST_P(AsyncIoTest, CompletionCallbackFiresExactlyOnce) {
  auto file = OpenScratch("callback.bin");
  std::vector<data_t> payload(4096, 0x5A);
  std::atomic<int> calls{0};
  IoRequest request;
  request.kind = IoRequest::Kind::kWrite;
  request.file = file.get();
  request.buffer = payload.data();
  request.bytes = payload.size();
  request.offset = 0;
  request.on_complete = [&](const Status &status) {
    EXPECT_TRUE(status.ok()) << status.ToString();
    calls.fetch_add(1);
  };
  auto completion = backend_->Submit(std::move(request));
  ASSERT_TRUE(completion->Wait().ok());
  backend_->Drain();
  EXPECT_EQ(calls.load(), 1);
}

TEST_P(AsyncIoTest, InjectedSubmitFaultFailsCleanly) {
  auto file = OpenScratch("submit_fault.bin");
  FaultInjector injector;
  FaultInjector::Config config;
  config.site_mask = FaultSiteBit(FaultSite::kAsyncSubmit);
  config.fail_at = 1;
  injector.Reset(config);
  backend_->SetFaultInjector(&injector);
  std::vector<data_t> payload(4096, 0x11);
  std::atomic<int> errors{0};
  IoRequest request;
  request.kind = IoRequest::Kind::kWrite;
  request.file = file.get();
  request.buffer = payload.data();
  request.bytes = payload.size();
  request.offset = 0;
  request.on_complete = [&](const Status &status) {
    if (!status.ok()) {
      errors.fetch_add(1);
    }
  };
  auto completion = backend_->Submit(std::move(request));
  EXPECT_FALSE(completion->Wait().ok());
  EXPECT_EQ(errors.load(), 1);
  EXPECT_EQ(injector.faults_injected(), 1u);
  // One-shot: the next submission goes through.
  IoRequest retry;
  retry.kind = IoRequest::Kind::kWrite;
  retry.file = file.get();
  retry.buffer = payload.data();
  retry.bytes = payload.size();
  retry.offset = 0;
  EXPECT_TRUE(backend_->Submit(std::move(retry))->Wait().ok());
  backend_->SetFaultInjector(nullptr);
}

TEST_P(AsyncIoTest, InjectedCompleteFaultSurfacesAfterIo) {
  auto file = OpenScratch("complete_fault.bin");
  FaultInjector injector;
  FaultInjector::Config config;
  config.site_mask = FaultSiteBit(FaultSite::kAsyncComplete);
  config.fail_at = 1;
  injector.Reset(config);
  backend_->SetFaultInjector(&injector);
  std::vector<data_t> payload(4096, 0x22);
  IoRequest request;
  request.kind = IoRequest::Kind::kWrite;
  request.file = file.get();
  request.buffer = payload.data();
  request.bytes = payload.size();
  request.offset = 0;
  EXPECT_FALSE(backend_->Submit(std::move(request))->Wait().ok());
  EXPECT_EQ(injector.faults_injected(), 1u);
  backend_->SetFaultInjector(nullptr);
}

INSTANTIATE_TEST_SUITE_P(Backends, AsyncIoTest,
                         ::testing::Values(IoBackendKind::kSync,
                                           IoBackendKind::kThreadPool,
                                           IoBackendKind::kIoUring),
                         [](const auto &info) {
                           return std::string(IoBackendKindName(info.param));
                         });

TEST(AsyncIoEnvTest, BackendKindParsing) {
  ::setenv("SSAGG_TEST_IO_BACKEND", "threadpool", 1);
  EXPECT_EQ(IoBackendKindFromEnv("SSAGG_TEST_IO_BACKEND"),
            IoBackendKind::kThreadPool);
  ::setenv("SSAGG_TEST_IO_BACKEND", "io_uring", 1);
  EXPECT_EQ(IoBackendKindFromEnv("SSAGG_TEST_IO_BACKEND"),
            IoBackendKind::kIoUring);
  ::setenv("SSAGG_TEST_IO_BACKEND", "sync", 1);
  EXPECT_EQ(IoBackendKindFromEnv("SSAGG_TEST_IO_BACKEND"),
            IoBackendKind::kSync);
  ::setenv("SSAGG_TEST_IO_BACKEND", "nonsense", 1);
  EXPECT_EQ(IoBackendKindFromEnv("SSAGG_TEST_IO_BACKEND"),
            IoBackendKind::kSync);
  ::unsetenv("SSAGG_TEST_IO_BACKEND");
  EXPECT_EQ(IoBackendKindFromEnv("SSAGG_TEST_IO_BACKEND"),
            IoBackendKind::kSync);
}

//===----------------------------------------------------------------------===//
// TemporaryFileManager: coalescing and compression
//===----------------------------------------------------------------------===//

class SpillIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    temp_dir_ =
        ::testing::TempDir() + "ssagg_spill_io_" + std::to_string(::getpid());
    (void)FileSystem::Default().CreateDirectories(temp_dir_);
  }
  std::string temp_dir_;
};

TEST_F(SpillIoTest, BatchedWritesCoalesceAdjacentSlots) {
  auto backend = CreateIoBackend(IoBackendKind::kThreadPool, 2);
  TemporaryFileManager tfm(temp_dir_, FileSystem::Default(), backend.get(),
                           /*spill_compression=*/false);
  constexpr idx_t kBatch = 4;
  std::vector<std::unique_ptr<FileBuffer>> pages;
  std::vector<FixedSpillRequest> requests(kBatch);
  for (idx_t i = 0; i < kBatch; i++) {
    pages.push_back(FileBuffer::Create(kPageSize).MoveValue());
    std::memset(pages[i]->data(), static_cast<int>('A' + i), kPageSize);
    requests[i].buffer = pages[i].get();
  }
  tfm.WriteFixedBlocks(requests.data(), kBatch);
  for (auto &request : requests) {
    ASSERT_TRUE(request.status.ok()) << request.status.ToString();
    ASSERT_NE(request.slot, kInvalidIndex);
  }
  // Fresh slots are consecutive, so the whole batch merges into one write
  // (async backends cap runs at four pages — longer runs would serialize a
  // deep batch into one transfer and forfeit submission parallelism — and
  // kBatch sits exactly at that cap).
  EXPECT_EQ(tfm.CoalescedWrites(), 1u);
  EXPECT_EQ(tfm.CoalescedPages(), kBatch);
  EXPECT_EQ(tfm.UsedSlots(), kBatch);
  // Each page reads back intact and releases its slot.
  for (idx_t i = 0; i < kBatch; i++) {
    auto readback = FileBuffer::Create(kPageSize).MoveValue();
    ASSERT_TRUE(tfm.ReadFixedBlock(requests[i].slot, *readback).ok());
    EXPECT_EQ(readback->data()[0], static_cast<data_t>('A' + i));
    EXPECT_EQ(readback->data()[kPageSize - 1], static_cast<data_t>('A' + i));
  }
  EXPECT_EQ(tfm.UsedSlots(), 0u);
}

TEST_F(SpillIoTest, CompressionShrinksBytesWrittenAndRoundtrips) {
  auto backend = CreateIoBackend(IoBackendKind::kSync);
  TemporaryFileManager tfm(temp_dir_, FileSystem::Default(), backend.get(),
                           /*spill_compression=*/true);
  // A structured page (mostly-small deltas in 64-bit words) compresses well.
  auto page = FileBuffer::Create(kPageSize).MoveValue();
  auto *words = reinterpret_cast<uint64_t *>(page->data());
  for (idx_t i = 0; i < kPageSize / sizeof(uint64_t); i++) {
    words[i] = 1000000 + i % 97;
  }
  FixedSpillRequest request;
  request.buffer = page.get();
  tfm.WriteFixedBlocks(&request, 1);
  ASSERT_TRUE(request.status.ok());
  EXPECT_LT(tfm.BytesWritten(), tfm.RawBytesWritten());
  EXPECT_EQ(tfm.RawBytesWritten(), kPageSize);
  auto readback = FileBuffer::Create(kPageSize).MoveValue();
  ASSERT_TRUE(tfm.ReadFixedBlock(request.slot, *readback).ok());
  EXPECT_EQ(std::memcmp(readback->data(), page->data(), kPageSize), 0);
}

TEST_F(SpillIoTest, IncompressiblePageStaysRaw) {
  auto backend = CreateIoBackend(IoBackendKind::kSync);
  TemporaryFileManager tfm(temp_dir_, FileSystem::Default(), backend.get(),
                           /*spill_compression=*/true);
  // Pseudo-random bytes defeat both byte-RLE and word-FoR; the page must be
  // stored raw (no frame) and still roundtrip.
  auto page = FileBuffer::Create(kPageSize).MoveValue();
  uint64_t state = 0x9E3779B97F4A7C15ULL;
  for (idx_t i = 0; i < kPageSize; i++) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    page->data()[i] = static_cast<data_t>(state >> 33);
  }
  FixedSpillRequest request;
  request.buffer = page.get();
  tfm.WriteFixedBlocks(&request, 1);
  ASSERT_TRUE(request.status.ok());
  EXPECT_EQ(tfm.BytesWritten(), kPageSize);
  auto readback = FileBuffer::Create(kPageSize).MoveValue();
  ASSERT_TRUE(tfm.ReadFixedBlock(request.slot, *readback).ok());
  EXPECT_EQ(std::memcmp(readback->data(), page->data(), kPageSize), 0);
}

//===----------------------------------------------------------------------===//
// BufferManager: prefetch
//===----------------------------------------------------------------------===//

TEST_F(SpillIoTest, PrefetchWarmsSpilledBlock) {
  BufferManagerOptions options;
  options.io_backend = IoBackendKind::kThreadPool;
  BufferManager bm(temp_dir_, 2 * kPageSize, options);
  // Two blocks in a two-page pool: allocating the second evicts the first
  // (over-eviction may spill both, which is fine).
  std::vector<std::shared_ptr<BlockHandle>> blocks(3);
  for (idx_t i = 0; i < 3; i++) {
    auto res = bm.Allocate(kPageSize, &blocks[i]);
    ASSERT_TRUE(res.ok()) << res.status().ToString();
    auto handle = res.MoveValue();
    std::memset(handle.Ptr(), static_cast<int>(i + 1), kPageSize);
  }
  ASSERT_GT(bm.Snapshot().temp_writes, 0u);
  // Warm the spilled blocks; Pin waits for the in-flight load, so no sleep
  // is needed for determinism.
  bm.Prefetch(blocks[0]);
  auto pin = bm.Pin(blocks[0]);
  ASSERT_TRUE(pin.ok()) << pin.status().ToString();
  auto handle = pin.MoveValue();
  EXPECT_EQ(handle.Ptr()[0], 1);
  EXPECT_EQ(handle.Ptr()[kPageSize - 1], 1);
  EXPECT_GE(bm.Snapshot().prefetch_issued, 1u);
}

TEST_F(SpillIoTest, FailedPrefetchPoisonsThenRecovers) {
  FaultInjector injector;
  FaultInjector::Config config;
  config.site_mask = FaultSiteBit(FaultSite::kRead);
  config.fail_at = 0;  // armed later
  injector.Reset(config);
  FaultInjectingFileSystem fault_fs(FileSystem::Default(), injector);
  BufferManagerOptions options;
  options.io_backend = IoBackendKind::kThreadPool;
  BufferManager bm(temp_dir_ + "/poison", 2 * kPageSize, options, fault_fs);
  std::vector<std::shared_ptr<BlockHandle>> blocks(3);
  for (idx_t i = 0; i < 3; i++) {
    auto res = bm.Allocate(kPageSize, &blocks[i]);
    ASSERT_TRUE(res.ok()) << res.status().ToString();
    auto handle = res.MoveValue();
    std::memset(handle.Ptr(), static_cast<int>(i + 1), kPageSize);
  }
  ASSERT_GT(bm.Snapshot().temp_writes, 0u);
  // Fail the next read: the prefetch poisons the block instead of crashing.
  config.fail_at = 1;
  injector.Reset(config);
  bm.Prefetch(blocks[0]);
  auto poisoned = bm.Pin(blocks[0]);
  if (poisoned.ok()) {
    // The prefetch lost the race (skipped): the pin itself must then have
    // eaten the injected fault — nothing to recover from.
    EXPECT_EQ(injector.faults_injected(), 1u);
  } else {
    // Poison surfaced exactly once; the retry reloads cleanly (one-shot).
    auto retry = bm.Pin(blocks[0]);
    ASSERT_TRUE(retry.ok()) << retry.status().ToString();
    auto handle = retry.MoveValue();
    EXPECT_EQ(handle.Ptr()[0], 1);
    EXPECT_EQ(handle.Ptr()[kPageSize - 1], 1);
  }
  // Whatever path was taken: no pins or charges leak once blocks die.
  blocks.clear();
  EXPECT_EQ(bm.PinnedBufferCount(), 0u);
}

}  // namespace
}  // namespace ssagg
