// Edge cases and invariants of the unified buffer manager beyond the basic
// behaviours of buffer_manager_test.cc.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstring>
#include <thread>

#include "buffer/buffer_manager.h"
#include "common/file_system.h"
#include "observe/metrics.h"

namespace ssagg {
namespace {

class BufferManagerEdgeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    temp_dir_ = ::testing::TempDir() + "ssagg_bm_edge_" + std::to_string(::getpid());
    (void)FileSystem::Default().CreateDirectories(temp_dir_);
  }
  std::string temp_dir_;
};

TEST_F(BufferManagerEdgeTest, RaisingTheLimitUnblocksAllocations) {
  BufferManager bm(temp_dir_, kPageSize);
  std::shared_ptr<BlockHandle> a, b;
  auto ha = bm.Allocate(kPageSize, &a).MoveValue();
  EXPECT_FALSE(bm.Allocate(kPageSize, &b).ok());  // pinned page, full pool
  bm.SetMemoryLimit(2 * kPageSize);
  EXPECT_TRUE(bm.Allocate(kPageSize, &b).ok());
}

TEST_F(BufferManagerEdgeTest, LoweringTheLimitEvictsLazily) {
  BufferManager bm(temp_dir_, 8 * kPageSize);
  std::vector<std::shared_ptr<BlockHandle>> blocks(8);
  for (auto &block : blocks) {
    auto h = bm.Allocate(kPageSize, &block).MoveValue();
  }
  EXPECT_EQ(bm.memory_used(), 8 * kPageSize);
  bm.SetMemoryLimit(2 * kPageSize);
  // No proactive eviction...
  EXPECT_EQ(bm.memory_used(), 8 * kPageSize);
  // ...but the next reservation drives usage down under the new limit, and
  // the evicted pages' frames are unmapped rather than kept idle past it.
  std::shared_ptr<BlockHandle> extra;
  auto h = bm.Allocate(kPageSize, &extra).MoveValue();
  auto snap = bm.Snapshot();
  EXPECT_LE(snap.memory_used, 2 * kPageSize);
  EXPECT_LE(snap.memory_used + snap.frame_pool_bytes, 2 * kPageSize);
}

TEST_F(BufferManagerEdgeTest, SpillTemporaryOffStillEvictsPersistent) {
  auto block_mgr =
      FileBlockManager::Create(temp_dir_ + "/edge.db").MoveValue();
  auto buf = FileBuffer::Create(kPageSize).MoveValue();
  std::vector<block_id_t> ids;
  for (int i = 0; i < 3; i++) {
    block_id_t id = block_mgr->AllocateBlock();
    std::memset(buf->data(), i, kPageSize);
    ASSERT_TRUE(block_mgr->WriteBlock(id, *buf).ok());
    ids.push_back(id);
  }
  BufferManager bm(temp_dir_, 3 * kPageSize);
  bm.SetSpillTemporary(false);
  // One unpinned temporary page + persistent pages filling the rest.
  std::shared_ptr<BlockHandle> temp;
  { auto h = bm.Allocate(kPageSize, &temp).MoveValue(); }
  std::vector<std::shared_ptr<BlockHandle>> handles;
  for (auto id : ids) {
    handles.push_back(bm.RegisterPersistentBlock(*block_mgr, id));
    auto pin = bm.Pin(handles.back());
    ASSERT_TRUE(pin.ok()) << pin.status().ToString();
  }
  auto snap = bm.Snapshot();
  EXPECT_GE(snap.evicted_persistent_count, 1u);
  EXPECT_EQ(snap.temp_writes, 0u);  // the temporary page never spilled
  // The temporary page is still resident and intact.
  EXPECT_TRUE(bm.Pin(temp).ok());
}

TEST_F(BufferManagerEdgeTest, PolicySwitchRedistributesQueuedPages) {
  BufferManager bm(temp_dir_, 4 * kPageSize, EvictionPolicy::kMixed);
  std::vector<std::shared_ptr<BlockHandle>> blocks(4);
  for (auto &block : blocks) {
    auto h = bm.Allocate(kPageSize, &block).MoveValue();
  }
  // Switch policies while pages sit in the queue; eviction must still work.
  bm.SetEvictionPolicy(EvictionPolicy::kTemporaryFirst);
  std::shared_ptr<BlockHandle> extra;
  ASSERT_TRUE(bm.Allocate(kPageSize, &extra).ok());
  EXPECT_GE(bm.Snapshot().evicted_temporary_count, 1u);
  bm.SetEvictionPolicy(EvictionPolicy::kPersistentFirst);
  std::shared_ptr<BlockHandle> extra2;
  ASSERT_TRUE(bm.Allocate(kPageSize, &extra2).ok());
}

TEST_F(BufferManagerEdgeTest, DoublePinSharesTheBuffer) {
  BufferManager bm(temp_dir_, 4 * kPageSize);
  std::shared_ptr<BlockHandle> block;
  auto h1 = bm.Allocate(kPageSize, &block).MoveValue();
  auto h2 = bm.Pin(block).MoveValue();
  EXPECT_EQ(h1.Ptr(), h2.Ptr());
  EXPECT_EQ(block->Readers(), 2);
  h1.Reset();
  EXPECT_EQ(block->Readers(), 1);
  // Still resident and usable through the second pin.
  h2.Ptr()[0] = 42;
}

TEST_F(BufferManagerEdgeTest, ZeroByteReservationsAreNoOps) {
  BufferManager bm(temp_dir_, kPageSize);
  EXPECT_TRUE(bm.ReserveExternalMemory(0).ok());
  bm.FreeExternalMemory(0);
  EXPECT_EQ(bm.memory_used(), 0u);
}

TEST_F(BufferManagerEdgeTest, ReservationSizeCannotWrapTheLimitCheck) {
  BufferManager bm(temp_dir_, 4 * kPageSize);
  std::shared_ptr<BlockHandle> block;
  auto h = bm.Allocate(kPageSize, &block).MoveValue();
  // used + size wraps around to kPageSize - 1, below the limit.
  EXPECT_FALSE(bm.ReserveExternalMemory(~idx_t{0}).ok());
  EXPECT_EQ(bm.memory_used(), kPageSize);
}

TEST_F(BufferManagerEdgeTest, ConcurrentNonPagedAndPagedPressure) {
  BufferManager bm(temp_dir_, 16 * kPageSize);
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; t++) {
    threads.emplace_back([&bm, &failures]() {
      for (int i = 0; i < 50; i++) {
        if (i % 3 == 0) {
          auto np = bm.AllocateNonPaged(kPageSize / 2);
          if (!np.ok()) {
            failures++;
            return;
          }
        } else {
          std::shared_ptr<BlockHandle> block;
          auto res = bm.Allocate(kPageSize, &block);
          if (!res.ok()) {
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
  // All handles dropped: accounting returns to zero.
  EXPECT_EQ(bm.memory_used(), 0u);
  EXPECT_EQ(bm.Snapshot().temp_file_size, 0u);
}

//===----------------------------------------------------------------------===//
// Eviction-policy victim order
//===----------------------------------------------------------------------===//

/// Fixture for the policy tests: a pool of 4 pages holding two resident
/// persistent pages and two resident temporary pages, all unpinned in a
/// controlled order, so that forcing evictions one page at a time reveals
/// exactly which kind each policy victimizes first.
class EvictionPolicyOrderTest : public BufferManagerEdgeTest {
 protected:
  struct EvictionCounts {
    idx_t persistent;
    idx_t temporary;
    idx_t temp_writes;
  };

  void PreparePool(BufferManager &bm, bool unpin_persistent_first) {
    block_mgr_ = FileBlockManager::Create(temp_dir_ + "/policy.db",
                                          bm.fs())
                     .MoveValue();
    auto buf = FileBuffer::Create(kPageSize).MoveValue();
    std::vector<block_id_t> ids;
    for (int i = 0; i < 2; i++) {
      block_id_t id = block_mgr_->AllocateBlock();
      std::memset(buf->data(), i + 1, kPageSize);
      ASSERT_TRUE(block_mgr_->WriteBlock(id, *buf).ok());
      ids.push_back(id);
    }
    // Two pinned temporary pages...
    temps_.resize(2);
    std::vector<BufferHandle> temp_pins;
    for (auto &block : temps_) {
      temp_pins.push_back(bm.Allocate(kPageSize, &block).MoveValue());
    }
    auto unpin_persistents = [&]() {
      for (auto id : ids) {
        persistents_.push_back(bm.RegisterPersistentBlock(*block_mgr_, id));
        auto pin = bm.Pin(persistents_.back());
        ASSERT_TRUE(pin.ok()) << pin.status().ToString();
        // The pin drops here: the page joins the eviction queue.
      }
    };
    // ...and two resident persistent pages, with the unpin order chosen so
    // the LRU would contradict the policy under test.
    if (unpin_persistent_first) {
      unpin_persistents();
      temp_pins.clear();
    } else {
      temp_pins.clear();
      unpin_persistents();
    }
    ASSERT_EQ(bm.memory_used(), 4 * kPageSize);
    ASSERT_EQ(bm.PinnedBufferCount(), 0u);
  }

  /// Allocates one pinned filler page, forcing exactly one eviction.
  void ForceOneEviction(BufferManager &bm) {
    fillers_.emplace_back();
    auto pin = bm.Allocate(kPageSize, &fillers_.back());
    ASSERT_TRUE(pin.ok()) << pin.status().ToString();
    filler_pins_.push_back(pin.MoveValue());
  }

  static EvictionCounts Counts(const BufferManager &bm) {
    auto snap = bm.Snapshot();
    return {snap.evicted_persistent_count, snap.evicted_temporary_count,
            snap.temp_writes};
  }

  /// Drops every handle; must run before the test-local BufferManager is
  /// destroyed, since the fixture members would otherwise outlive it.
  void ReleasePool() {
    filler_pins_.clear();
    fillers_.clear();
    persistents_.clear();
    temps_.clear();
  }

  std::unique_ptr<FileBlockManager> block_mgr_;
  std::vector<std::shared_ptr<BlockHandle>> temps_;
  std::vector<std::shared_ptr<BlockHandle>> persistents_;
  std::vector<std::shared_ptr<BlockHandle>> fillers_;
  std::vector<BufferHandle> filler_pins_;
};

TEST_F(EvictionPolicyOrderTest, TemporaryFirstDrainsTemporariesBeforeAny) {
  BufferManager bm(temp_dir_, 4 * kPageSize, EvictionPolicy::kTemporaryFirst);
  // Persistents are the LRU victims; the policy must override that.
  PreparePool(bm, /*unpin_persistent_first=*/true);

  ForceOneEviction(bm);
  ForceOneEviction(bm);
  auto counts = Counts(bm);
  EXPECT_EQ(counts.temporary, 2u) << "temporaries were not evicted first";
  EXPECT_EQ(counts.persistent, 0u);
  EXPECT_EQ(counts.temp_writes, 2u) << "evicted temporaries must be spilled";

  ForceOneEviction(bm);
  ForceOneEviction(bm);
  counts = Counts(bm);
  EXPECT_EQ(counts.temporary, 2u);
  EXPECT_EQ(counts.persistent, 2u)
      << "with temporaries drained, persistents follow";
  ReleasePool();
}

TEST_F(EvictionPolicyOrderTest, PersistentFirstDrainsPersistentsBeforeAny) {
  // Global "bm.*" metrics move in lockstep with the snapshot counters.
  MetricsRegistry &registry = MetricsRegistry::Global();
  uint64_t persistent_before = registry.Value("bm.evictions_persistent");
  uint64_t spilled_before = registry.Value("bm.evictions_temporary_spilled");

  BufferManager bm(temp_dir_, 4 * kPageSize, EvictionPolicy::kPersistentFirst);
  // Temporaries are the LRU victims; the policy must override that.
  PreparePool(bm, /*unpin_persistent_first=*/false);

  ForceOneEviction(bm);
  ForceOneEviction(bm);
  auto counts = Counts(bm);
  EXPECT_EQ(counts.persistent, 2u) << "persistents were not evicted first";
  EXPECT_EQ(counts.temporary, 0u);
  EXPECT_EQ(counts.temp_writes, 0u)
      << "no temporary page may spill while persistents remain";
  EXPECT_EQ(registry.Value("bm.evictions_persistent"), persistent_before + 2);
  EXPECT_EQ(registry.Value("bm.evictions_temporary_spilled"), spilled_before);

  ForceOneEviction(bm);
  ForceOneEviction(bm);
  counts = Counts(bm);
  EXPECT_EQ(counts.persistent, 2u);
  EXPECT_EQ(counts.temporary, 2u);
  EXPECT_EQ(registry.Value("bm.evictions_temporary_spilled"),
            spilled_before + 2);
  ReleasePool();
}

TEST_F(EvictionPolicyOrderTest, MixedPolicyFollowsLruAcrossKinds) {
  BufferManager bm(temp_dir_, 4 * kPageSize, EvictionPolicy::kMixed);
  // LRU order: persistents unpinned before temporaries.
  PreparePool(bm, /*unpin_persistent_first=*/true);

  ForceOneEviction(bm);
  auto counts = Counts(bm);
  EXPECT_EQ(counts.persistent, 1u) << "mixed policy must follow LRU order";
  EXPECT_EQ(counts.temporary, 0u);

  ForceOneEviction(bm);
  counts = Counts(bm);
  EXPECT_EQ(counts.persistent, 2u);
  EXPECT_EQ(counts.temporary, 0u);

  ForceOneEviction(bm);
  ForceOneEviction(bm);
  counts = Counts(bm);
  EXPECT_EQ(counts.temporary, 2u);

  // Spilled temporaries reload intact after the churn.
  filler_pins_.clear();
  for (auto &block : temps_) {
    auto pin = bm.Pin(block);
    ASSERT_TRUE(pin.ok()) << pin.status().ToString();
  }
  ReleasePool();
}

}  // namespace
}  // namespace ssagg
