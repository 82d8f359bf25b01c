#include "buffer/buffer_manager.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <thread>
#include <vector>

#include "buffer/memory_grant.h"
#include "common/file_system.h"
#include "common/random.h"
#include "core/run_aggregation.h"
#include "execution/collectors.h"
#include "execution/range_source.h"
#include "observe/metrics.h"

// Sanitizer allocators abort on oversize requests instead of returning null.
#if defined(__SANITIZE_THREAD__)
#define SSAGG_SANITIZER_ALLOCATOR 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define SSAGG_SANITIZER_ALLOCATOR 1
#endif
#endif
#if defined(SSAGG_ASAN)
#define SSAGG_SANITIZER_ALLOCATOR 1
#endif

namespace ssagg {
namespace {

constexpr idx_t kMiB = 1024 * 1024;

class BufferManagerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    temp_dir_ = ::testing::TempDir() + "ssagg_bm_test_" + std::to_string(::getpid());
    (void)FileSystem::Default().CreateDirectories(temp_dir_);
  }
  std::string temp_dir_;
};

void FillPage(BufferHandle &handle, uint8_t seed) {
  std::memset(handle.Ptr(), seed, kPageSize);
}

bool CheckPage(BufferHandle &handle, uint8_t seed) {
  for (idx_t i = 0; i < kPageSize; i++) {
    if (handle.Ptr()[i] != seed) {
      return false;
    }
  }
  return true;
}

TEST_F(BufferManagerTest, AllocateAndPinFixedPage) {
  BufferManager bm(temp_dir_, 16 * kMiB);
  std::shared_ptr<BlockHandle> block;
  auto res = bm.Allocate(kPageSize, &block);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  auto handle = res.MoveValue();
  EXPECT_EQ(block->kind(), BlockKind::kTemporaryFixed);
  EXPECT_EQ(bm.memory_used(), kPageSize);
  FillPage(handle, 0xAB);
  handle.Reset();  // unpin; stays resident (ample memory)
  auto pin = bm.Pin(block);
  ASSERT_TRUE(pin.ok());
  auto h2 = pin.MoveValue();
  EXPECT_TRUE(CheckPage(h2, 0xAB));
  // No spill happened: memory was ample.
  EXPECT_EQ(bm.Snapshot().temp_writes, 0u);
}

TEST_F(BufferManagerTest, VariableSizeAllocation) {
  BufferManager bm(temp_dir_, 16 * kMiB);
  std::shared_ptr<BlockHandle> block;
  auto res = bm.Allocate(3 * kPageSize + 123, &block);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(block->kind(), BlockKind::kTemporaryVariable);
  EXPECT_EQ(bm.memory_used(), 3 * kPageSize + 123);
}

TEST_F(BufferManagerTest, EvictionSpillsAndReloads) {
  // Room for 4 pages; allocate 8, then read all back.
  BufferManager bm(temp_dir_, 4 * kPageSize);
  std::vector<std::shared_ptr<BlockHandle>> blocks(8);
  for (idx_t i = 0; i < 8; i++) {
    auto res = bm.Allocate(kPageSize, &blocks[i]);
    ASSERT_TRUE(res.ok()) << res.status().ToString();
    auto handle = res.MoveValue();
    FillPage(handle, static_cast<uint8_t>(i));
  }
  EXPECT_LE(bm.memory_used(), 4 * kPageSize);
  auto snap = bm.Snapshot();
  EXPECT_GE(snap.evicted_temporary_count, 4u);
  EXPECT_GT(snap.temp_writes, 0u);
  for (idx_t i = 0; i < 8; i++) {
    auto pin = bm.Pin(blocks[i]);
    ASSERT_TRUE(pin.ok()) << pin.status().ToString();
    auto handle = pin.MoveValue();
    EXPECT_TRUE(CheckPage(handle, static_cast<uint8_t>(i))) << "page " << i;
  }
}

TEST_F(BufferManagerTest, PinnedPagesCannotBeEvicted) {
  BufferManager bm(temp_dir_, 2 * kPageSize);
  std::shared_ptr<BlockHandle> b0, b1, b2;
  auto h0 = bm.Allocate(kPageSize, &b0).MoveValue();
  auto h1 = bm.Allocate(kPageSize, &b1).MoveValue();
  // Both pages pinned: a third allocation must fail.
  auto res = bm.Allocate(kPageSize, &b2);
  ASSERT_FALSE(res.ok());
  EXPECT_TRUE(res.status().IsOutOfMemory());
  // After unpinning one, the allocation succeeds.
  h0.Reset();
  auto res2 = bm.Allocate(kPageSize, &b2);
  ASSERT_TRUE(res2.ok()) << res2.status().ToString();
}

TEST_F(BufferManagerTest, BufferReuseOnSameSizeAllocation) {
  BufferManager bm(temp_dir_, 2 * kPageSize);
  std::shared_ptr<BlockHandle> b0;
  {
    auto h = bm.Allocate(kPageSize, &b0).MoveValue();
    FillPage(h, 1);
  }
  std::shared_ptr<BlockHandle> b1;
  {
    auto h = bm.Allocate(kPageSize, &b1).MoveValue();
    FillPage(h, 2);
  }
  // Third allocation evicts one of the unpinned pages and reuses the buffer.
  std::shared_ptr<BlockHandle> b2;
  auto h2 = bm.Allocate(kPageSize, &b2).MoveValue();
  EXPECT_GE(bm.Snapshot().reused_buffers, 1u);
}

TEST_F(BufferManagerTest, DestroyBlockFreesMemory) {
  BufferManager bm(temp_dir_, 16 * kMiB);
  std::shared_ptr<BlockHandle> block;
  { auto h = bm.Allocate(kPageSize, &block).MoveValue(); }
  EXPECT_EQ(bm.memory_used(), kPageSize);
  bm.DestroyBlock(block);
  EXPECT_EQ(bm.memory_used(), 0u);
  auto pin = bm.Pin(block);
  EXPECT_FALSE(pin.ok());
}

TEST_F(BufferManagerTest, DestroySpilledBlockFreesTempSpace) {
  BufferManager bm(temp_dir_, 2 * kPageSize);
  std::vector<std::shared_ptr<BlockHandle>> blocks(4);
  for (idx_t i = 0; i < 4; i++) {
    auto h = bm.Allocate(kPageSize, &blocks[i]).MoveValue();
  }
  EXPECT_GT(bm.Snapshot().temp_file_size, 0u);
  for (auto &b : blocks) {
    bm.DestroyBlock(b);
  }
  EXPECT_EQ(bm.Snapshot().temp_file_size, 0u);
}

TEST_F(BufferManagerTest, DroppingHandleReleasesEverything) {
  BufferManager bm(temp_dir_, 2 * kPageSize);
  {
    std::vector<std::shared_ptr<BlockHandle>> blocks(4);
    for (idx_t i = 0; i < 4; i++) {
      auto h = bm.Allocate(kPageSize, &blocks[i]).MoveValue();
    }
  }  // all handles dropped
  EXPECT_EQ(bm.memory_used(), 0u);
  EXPECT_EQ(bm.Snapshot().temp_file_size, 0u);
}

TEST_F(BufferManagerTest, CanDestroyBlocksAreDroppedNotSpilled) {
  BufferManager bm(temp_dir_, 2 * kPageSize);
  std::vector<std::shared_ptr<BlockHandle>> blocks(4);
  for (idx_t i = 0; i < 4; i++) {
    auto res = bm.Allocate(kPageSize, &blocks[i], /*can_destroy=*/true);
    ASSERT_TRUE(res.ok());
  }
  EXPECT_EQ(bm.Snapshot().temp_writes, 0u);
  // The evicted blocks cannot be pinned again.
  int destroyed = 0;
  for (auto &b : blocks) {
    if (!bm.Pin(b).ok()) {
      destroyed++;
    }
  }
  EXPECT_GE(destroyed, 2);
}

TEST_F(BufferManagerTest, NonPagedAllocationCountsAndEvicts) {
  BufferManager bm(temp_dir_, 4 * kPageSize);
  std::vector<std::shared_ptr<BlockHandle>> blocks(4);
  for (idx_t i = 0; i < 4; i++) {
    auto h = bm.Allocate(kPageSize, &blocks[i]).MoveValue();
    FillPage(h, static_cast<uint8_t>(i));
  }
  // Memory is full of unpinned pages; a non-paged allocation evicts them.
  auto res = bm.AllocateNonPaged(2 * kPageSize);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  auto alloc = res.MoveValue();
  EXPECT_EQ(alloc.size(), 2 * kPageSize);
  EXPECT_LE(bm.memory_used(), 4 * kPageSize);
  EXPECT_GE(bm.Snapshot().evicted_temporary_count, 2u);
  // Contents of evicted blocks survive.
  auto pin = bm.Pin(blocks[0]);
  ASSERT_TRUE(pin.ok());
  auto h = pin.MoveValue();
  EXPECT_TRUE(CheckPage(h, 0));
}

TEST_F(BufferManagerTest, NonPagedAllocationTooLargeFails) {
  BufferManager bm(temp_dir_, kPageSize);
  auto res = bm.AllocateNonPaged(2 * kPageSize);
  EXPECT_FALSE(res.ok());
  EXPECT_TRUE(res.status().IsOutOfMemory());
  EXPECT_EQ(bm.memory_used(), 0u);
}

TEST_F(BufferManagerTest, PersistentBlocksEvictForFree) {
  std::string db_path = temp_dir_ + "/test.db";
  auto bm_res = FileBlockManager::Create(db_path);
  ASSERT_TRUE(bm_res.ok());
  auto block_mgr = bm_res.MoveValue();
  BufferManager bm(temp_dir_, 2 * kPageSize);

  // Write 4 persistent blocks directly.
  std::vector<block_id_t> ids;
  auto buf = FileBuffer::Create(kPageSize).MoveValue();
  for (idx_t i = 0; i < 4; i++) {
    block_id_t id = block_mgr->AllocateBlock();
    std::memset(buf->data(), static_cast<int>(i + 10), kPageSize);
    ASSERT_TRUE(block_mgr->WriteBlock(id, *buf).ok());
    ids.push_back(id);
  }
  // Register + pin all 4 through a 2-page pool: persistent pages get
  // evicted without temp-file writes.
  std::vector<std::shared_ptr<BlockHandle>> handles;
  for (auto id : ids) {
    handles.push_back(bm.RegisterPersistentBlock(*block_mgr, id));
  }
  for (idx_t i = 0; i < 4; i++) {
    auto pin = bm.Pin(handles[i]);
    ASSERT_TRUE(pin.ok()) << pin.status().ToString();
    auto h = pin.MoveValue();
    EXPECT_EQ(h.Ptr()[0], static_cast<uint8_t>(i + 10));
  }
  auto snap = bm.Snapshot();
  EXPECT_GE(snap.evicted_persistent_count, 2u);
  EXPECT_EQ(snap.temp_writes, 0u);
  // Re-pinning reloads from the database file.
  auto pin = bm.Pin(handles[0]);
  ASSERT_TRUE(pin.ok());
  auto h = pin.MoveValue();
  EXPECT_EQ(h.Ptr()[0], 10);
}

TEST_F(BufferManagerTest, TemporaryFirstSparesPersistentPages) {
  std::string db_path = temp_dir_ + "/policy.db";
  auto block_mgr = FileBlockManager::Create(db_path).MoveValue();
  auto buf = FileBuffer::Create(kPageSize).MoveValue();
  std::vector<block_id_t> ids;
  for (idx_t i = 0; i < 2; i++) {
    block_id_t id = block_mgr->AllocateBlock();
    std::memset(buf->data(), 7, kPageSize);
    ASSERT_TRUE(block_mgr->WriteBlock(id, *buf).ok());
    ids.push_back(id);
  }

  BufferManager bm(temp_dir_, 4 * kPageSize, EvictionPolicy::kTemporaryFirst);
  // Load 2 persistent + 2 temporary pages (pool now full), then allocate:
  // the temporary pages must be evicted first.
  std::vector<std::shared_ptr<BlockHandle>> persistent;
  for (auto id : ids) {
    persistent.push_back(bm.RegisterPersistentBlock(*block_mgr, id));
    auto pin = bm.Pin(persistent.back());
    ASSERT_TRUE(pin.ok());
  }
  std::vector<std::shared_ptr<BlockHandle>> temps(2);
  for (idx_t i = 0; i < 2; i++) {
    auto h = bm.Allocate(kPageSize, &temps[i]).MoveValue();
  }
  std::shared_ptr<BlockHandle> extra;
  auto h = bm.Allocate(kPageSize, &extra).MoveValue();
  auto snap = bm.Snapshot();
  EXPECT_GE(snap.evicted_temporary_count, 1u);
  EXPECT_EQ(snap.evicted_persistent_count, 0u);
}

TEST_F(BufferManagerTest, PersistentFirstSparesTemporaryPages) {
  std::string db_path = temp_dir_ + "/policy2.db";
  auto block_mgr = FileBlockManager::Create(db_path).MoveValue();
  auto buf = FileBuffer::Create(kPageSize).MoveValue();
  std::vector<block_id_t> ids;
  for (idx_t i = 0; i < 2; i++) {
    block_id_t id = block_mgr->AllocateBlock();
    std::memset(buf->data(), 7, kPageSize);
    ASSERT_TRUE(block_mgr->WriteBlock(id, *buf).ok());
    ids.push_back(id);
  }
  BufferManager bm(temp_dir_, 4 * kPageSize,
                   EvictionPolicy::kPersistentFirst);
  std::vector<std::shared_ptr<BlockHandle>> persistent;
  for (auto id : ids) {
    persistent.push_back(bm.RegisterPersistentBlock(*block_mgr, id));
    auto pin = bm.Pin(persistent.back());
    ASSERT_TRUE(pin.ok());
  }
  std::vector<std::shared_ptr<BlockHandle>> temps(2);
  for (idx_t i = 0; i < 2; i++) {
    auto h = bm.Allocate(kPageSize, &temps[i]).MoveValue();
  }
  std::shared_ptr<BlockHandle> extra;
  auto h = bm.Allocate(kPageSize, &extra).MoveValue();
  auto snap = bm.Snapshot();
  EXPECT_GE(snap.evicted_persistent_count, 1u);
  EXPECT_EQ(snap.evicted_temporary_count, 0u);
  EXPECT_EQ(snap.temp_writes, 0u);
}

TEST_F(BufferManagerTest, ConcurrentAllocatePinStress) {
  BufferManager bm(temp_dir_, 8 * kPageSize);
  constexpr int kThreads = 4;
  constexpr int kPagesPerThread = 16;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&bm, &failures, t]() {
      std::vector<std::shared_ptr<BlockHandle>> blocks(kPagesPerThread);
      for (int i = 0; i < kPagesPerThread; i++) {
        auto res = bm.Allocate(kPageSize, &blocks[i]);
        if (!res.ok()) {
          failures++;
          return;
        }
        auto handle = res.MoveValue();
        std::memset(handle.Ptr(), t * kPagesPerThread + i, kPageSize);
      }
      for (int round = 0; round < 3; round++) {
        for (int i = 0; i < kPagesPerThread; i++) {
          auto pin = bm.Pin(blocks[i]);
          if (!pin.ok()) {
            failures++;
            return;
          }
          auto handle = pin.MoveValue();
          uint8_t expected = static_cast<uint8_t>(t * kPagesPerThread + i);
          if (handle.Ptr()[0] != expected ||
              handle.Ptr()[kPageSize - 1] != expected) {
            failures++;
            return;
          }
        }
      }
    });
  }
  for (auto &th : threads) {
    th.join();
  }
  EXPECT_EQ(failures.load(), 0);
  EXPECT_LE(bm.memory_used(), 8 * kPageSize);
}

// 2^48 bytes exceed the x86-64 user address space, so these requests fail
// under any overcommit setting, after the reservation itself succeeded.
constexpr idx_t kUnmappable = 1ULL << 48;

TEST_F(BufferManagerTest, FailedMappingReturnsOutOfMemory) {
  BufferManager bm(temp_dir_, 1ULL << 49);
  MemoryGrantPool pool(1ULL << 49);
  auto grant = pool.TryAcquire(1ULL << 49, 1ULL << 49).MoveValue();
  GrantScope scope(grant.state());
  std::shared_ptr<BlockHandle> block;
  auto res = bm.Allocate(kUnmappable, &block);
  ASSERT_FALSE(res.ok());
  EXPECT_TRUE(res.status().IsOutOfMemory()) << res.status().ToString();
  EXPECT_EQ(bm.memory_used(), 0u);
  EXPECT_EQ(grant.state()->used(), 0u);
}

TEST_F(BufferManagerTest, FailedNonPagedAllocationReturnsOutOfMemory) {
#if defined(SSAGG_SANITIZER_ALLOCATOR)
  GTEST_SKIP() << "the sanitizer allocator aborts on oversize requests";
#endif
  BufferManager bm(temp_dir_, 1ULL << 49);
  MemoryGrantPool pool(1ULL << 49);
  auto grant = pool.TryAcquire(1ULL << 49, 1ULL << 49).MoveValue();
  GrantScope scope(grant.state());
  auto res = bm.AllocateNonPaged(kUnmappable);
  ASSERT_FALSE(res.ok());
  EXPECT_TRUE(res.status().IsOutOfMemory()) << res.status().ToString();
  EXPECT_EQ(bm.memory_used(), 0u);
  EXPECT_EQ(grant.state()->used(), 0u);
}

TEST_F(BufferManagerTest, ReleasedFramesAreReused) {
  BufferManager bm(temp_dir_, 16 * kMiB);
  std::vector<std::shared_ptr<BlockHandle>> blocks(4);
  for (auto &block : blocks) {
    auto h = bm.Allocate(kPageSize, &block).MoveValue();
  }
  for (auto &block : blocks) {
    bm.DestroyBlock(block);
  }
  auto snap = bm.Snapshot();
  EXPECT_EQ(snap.memory_used, 0u);
  EXPECT_EQ(snap.frame_pool_bytes, 4 * kPageSize);
  EXPECT_EQ(snap.frames_mapped, 4u);
  // The next allocations take the idle frames instead of mapping new ones.
  for (auto &block : blocks) {
    auto h = bm.Allocate(kPageSize, &block).MoveValue();
  }
  snap = bm.Snapshot();
  EXPECT_EQ(snap.frame_pool_bytes, 0u);
  EXPECT_EQ(snap.frames_mapped, 4u);
  // A variable-size page does not fit beside the idle frames: they go first.
  blocks.clear();
  bm.SetMemoryLimit(8 * kPageSize);
  EXPECT_EQ(bm.Snapshot().frame_pool_bytes, 4 * kPageSize);
  std::shared_ptr<BlockHandle> big;
  auto h = bm.Allocate(6 * kPageSize, &big).MoveValue();
  snap = bm.Snapshot();
  EXPECT_EQ(snap.frame_pool_bytes, 2 * kPageSize);
  EXPECT_EQ(snap.frames_mapped, 2u);
}

// Drives a seeded random mix of every operation that takes or releases
// memory, and checks after each step that the idle frames fit beside the
// charged memory: resident page memory stays within the limit.
TEST_F(BufferManagerTest, FramePoolStaysWithinTheLimit) {
  constexpr idx_t kLimit = 24 * kPageSize;
  BufferManager bm(temp_dir_, kLimit);
  RandomEngine rng(20240513);
  std::vector<std::shared_ptr<BlockHandle>> blocks;
  std::vector<BufferHandle> pins;
  std::vector<NonPagedAllocation> non_paged;
  bool lowered = false;
  idx_t lowerings = 0;
  auto check = [&](const char *step) {
    auto snap = bm.Snapshot();
    // A limit lowered below the usage leaves usage above it for a while;
    // no frame may sit idle then.
    EXPECT_LE(snap.memory_used + snap.frame_pool_bytes,
              std::max(snap.memory_limit, snap.memory_used))
        << "after " << step;
    // Every mapped frame is charged to a block or idle in the pool.
    EXPECT_LE(snap.frames_mapped * kPageSize,
              snap.memory_used + snap.frame_pool_bytes)
        << "after " << step;
  };
  auto take = [&rng](auto &items) {
    std::swap(items[rng.NextRange(items.size())], items.back());
    auto item = std::move(items.back());
    items.pop_back();
    return item;
  };
  for (int step = 0; step < 3000; step++) {
    switch (rng.NextRange(10)) {
      case 0:
      case 1:
      case 2: {
        if (blocks.size() >= 48) {
          bm.DestroyBlock(take(blocks));
        }
        std::shared_ptr<BlockHandle> block;
        auto res = bm.Allocate(kPageSize, &block);
        if (res.ok()) {
          blocks.push_back(block);
          if (rng.NextRange(2) == 0 && pins.size() < 8) {
            pins.push_back(res.MoveValue());
          }
        }
        check("Allocate");
        break;
      }
      case 3: {
        if (!blocks.empty() && pins.size() < 8) {
          auto res = bm.Pin(blocks[rng.NextRange(blocks.size())]);
          if (res.ok()) {
            pins.push_back(res.MoveValue());
          }
        }
        check("Pin");
        break;
      }
      case 4: {
        if (!pins.empty()) {
          take(pins);
        }
        check("Unpin");
        break;
      }
      case 5: {
        if (!blocks.empty()) {
          bm.DestroyBlock(take(blocks));
        }
        check("DestroyBlock");
        break;
      }
      case 6: {
        // Forced eviction: a reservation larger than the headroom.
        idx_t limit = bm.memory_limit();
        idx_t used = bm.memory_used();
        idx_t size = (limit > used ? limit - used : 0) + 2 * kPageSize;
        if (bm.ReserveExternalMemory(size).ok()) {
          check("forced eviction");
          bm.FreeExternalMemory(size);
        }
        check("forced eviction");
        break;
      }
      case 7: {
        if (non_paged.size() < 3 && rng.NextRange(2) == 0) {
          auto res = bm.AllocateNonPaged(kPageSize / 2 +
                                         rng.NextRange(2 * kPageSize));
          if (res.ok()) {
            non_paged.push_back(res.MoveValue());
          }
        } else if (!non_paged.empty()) {
          take(non_paged);
        }
        check("AllocateNonPaged");
        break;
      }
      case 8: {
        // Drop a block's last handle without DestroyBlock.
        if (!blocks.empty()) {
          take(blocks);
        }
        check("drop handle");
        break;
      }
      default: {
        if (lowered) {
          bm.SetMemoryLimit(kLimit);
        } else if (rng.NextRange(4) == 0) {
          // To the current usage, or below it.
          bm.SetMemoryLimit(bm.memory_used() / (1 + rng.NextRange(2)));
          EXPECT_EQ(bm.Snapshot().frame_pool_bytes, 0u);
          lowerings++;
        }
        lowered = bm.memory_limit() < kLimit;
        check("SetMemoryLimit");
        break;
      }
    }
  }
  pins.clear();
  blocks.clear();
  non_paged.clear();
  auto snap = bm.Snapshot();
  EXPECT_EQ(snap.memory_used, 0u);
  EXPECT_EQ(snap.pinned_buffers, 0u);
  EXPECT_EQ(snap.temp_file_size, 0u);
  EXPECT_EQ(snap.frames_mapped * kPageSize, snap.frame_pool_bytes);
  // The sequence exercised what it is meant to.
  EXPECT_GT(lowerings, 0u);
  EXPECT_GT(snap.evicted_temporary_count, 0u);
  EXPECT_GT(snap.temp_reads, 0u);
  EXPECT_GT(MetricsRegistry::Global().Snapshot()["bm.frame_pool_hits"], 0u);
}

// Frames are reused across queries instead of accumulating: with one worker
// the allocation sequence repeats exactly, so after the first query the pool
// already holds every frame later queries need.
TEST_F(BufferManagerTest, RepeatedQueriesMapNoNewFrames) {
  constexpr idx_t kRows = 200000;
  constexpr idx_t kGroups = 50000;
  BufferManager bm(temp_dir_, 64 * kMiB);
  TaskExecutor executor(1);
  HashAggregateConfig config;
  config.strategy = AggregateStrategy::kRadixMerge;
  idx_t after_first = 0;
  for (int query = 1; query <= 20; query++) {
    RangeSource source(
        {LogicalTypeId::kInt64, LogicalTypeId::kInt64}, kRows,
        [](DataChunk &chunk, idx_t start, idx_t count) {
          for (idx_t i = 0; i < count; i++) {
            auto row = static_cast<int64_t>(start + i);
            chunk.column(0).SetValue<int64_t>(
                i, row % static_cast<int64_t>(kGroups));
            chunk.column(1).SetValue<int64_t>(i, row);
          }
          return Status::OK();
        });
    CountingCollector sink;
    auto stats = RunGroupedAggregation(bm, source, {0},
                                       {{AggregateKind::kSum, 1}}, sink,
                                       executor, config);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    ASSERT_EQ(sink.TotalRows(), kGroups);
    auto snap = bm.Snapshot();
    ASSERT_EQ(snap.memory_used, 0u);
    ASSERT_EQ(snap.temp_writes, 0u) << "the query must stay in memory";
    if (query == 1) {
      after_first = snap.frames_mapped;
      EXPECT_GT(after_first, 0u);
      EXPECT_LE(after_first, snap.memory_limit / kPageSize);
    }
    EXPECT_EQ(snap.frames_mapped, after_first) << "after query " << query;
  }
}

#if defined(SSAGG_ASAN)
// An idle frame is poisoned: a stale pointer into a destroyed block's page is
// reported, as it was when the frame went back to free().
TEST_F(BufferManagerTest, StaleWriteIntoPooledFrameIsReported) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        BufferManager bm(temp_dir_, 16 * kMiB);
        std::shared_ptr<BlockHandle> block;
        data_ptr_t stale;
        {
          auto h = bm.Allocate(kPageSize, &block).MoveValue();
          stale = h.Ptr();
        }
        bm.DestroyBlock(block);
        stale[kPageSize / 2] = 1;
      },
      "use-after-poison");
}
#endif

TEST_F(BufferManagerTest, EvictionQueueDropsDeadEntriesWithoutEvicting) {
  // Every unpin enqueues an eviction candidate; with nothing ever evicted,
  // no scan removes the entries its earlier unpins left behind, so the
  // queue itself must drop them.
  BufferManager bm(temp_dir_, 16 * kPageSize);
  std::shared_ptr<BlockHandle> hot, cold;
  ASSERT_TRUE(bm.Allocate(kPageSize, &cold).ok());
  ASSERT_TRUE(bm.Allocate(kPageSize, &hot).ok());
  for (int i = 0; i < 100000; i++) {
    ASSERT_TRUE(bm.Pin(hot).ok());
  }
  auto snap = bm.Snapshot();
  EXPECT_EQ(snap.evicted_temporary_count, 0u);
  EXPECT_GE(snap.eviction_queue_entries, 2u);  // both pages stay candidates
  EXPECT_LT(snap.eviction_queue_entries, 1024u);
  // The live entries kept their order: the cold page is the first victim,
  // so the hot page is still resident.
  std::vector<std::shared_ptr<BlockHandle>> fill(15);
  for (auto &block : fill) {
    ASSERT_TRUE(bm.Allocate(kPageSize, &block).ok());
  }
  ASSERT_TRUE(bm.Pin(hot).ok());
  EXPECT_EQ(bm.Snapshot().evicted_temporary_count, 1u);
  EXPECT_EQ(bm.Snapshot().temp_reads, 0u);
}

TEST_F(BufferManagerTest, SnapshotTracksLoadedKinds) {
  BufferManager bm(temp_dir_, 16 * kMiB);
  std::shared_ptr<BlockHandle> block;
  auto h = bm.Allocate(kPageSize, &block).MoveValue();
  auto snap = bm.Snapshot();
  EXPECT_EQ(snap.temporary_bytes_in_memory, kPageSize);
  EXPECT_EQ(snap.persistent_bytes_in_memory, 0u);
}

}  // namespace
}  // namespace ssagg
