#include "buffer/temporary_file_manager.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstring>

#include "common/constants.h"

namespace ssagg {
namespace {

class TempFileManagerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "ssagg_tfm_" + std::to_string(::getpid());
    (void)FileSystem::Default().CreateDirectories(dir_);
  }
  std::string dir_;
};

TEST_F(TempFileManagerTest, FixedBlockRoundTrip) {
  TemporaryFileManager tfm(dir_);
  auto buffer = FileBuffer::Create(kPageSize).MoveValue();
  std::memset(buffer->data(), 0x5A, kPageSize);
  auto slot = tfm.WriteFixedBlock(*buffer);
  ASSERT_TRUE(slot.ok());
  EXPECT_EQ(tfm.CurrentSize(), kPageSize);
  auto read_back = FileBuffer::Create(kPageSize).MoveValue();
  ASSERT_TRUE(tfm.ReadFixedBlock(slot.value(), *read_back).ok());
  EXPECT_EQ(std::memcmp(read_back->data(), buffer->data(), kPageSize), 0);
  // Reading eagerly frees the slot.
  EXPECT_EQ(tfm.CurrentSize(), 0u);
}

TEST_F(TempFileManagerTest, SlotsAreRecycled) {
  TemporaryFileManager tfm(dir_);
  auto buffer = FileBuffer::Create(kPageSize).MoveValue();
  std::vector<idx_t> slots;
  for (int i = 0; i < 4; i++) {
    std::memset(buffer->data(), i, kPageSize);
    slots.push_back(tfm.WriteFixedBlock(*buffer).MoveValue());
  }
  EXPECT_EQ(tfm.CurrentSize(), 4 * kPageSize);
  // Free two slots and write two new blocks: the file must not grow.
  tfm.FreeFixedSlot(slots[1]);
  tfm.FreeFixedSlot(slots[2]);
  std::memset(buffer->data(), 0xEE, kPageSize);
  idx_t s1 = tfm.WriteFixedBlock(*buffer).MoveValue();
  idx_t s2 = tfm.WriteFixedBlock(*buffer).MoveValue();
  EXPECT_TRUE(s1 == slots[1] || s1 == slots[2]);
  EXPECT_TRUE(s2 == slots[1] || s2 == slots[2]);
  EXPECT_EQ(tfm.CurrentSize(), 4 * kPageSize);
  EXPECT_EQ(tfm.PeakSize(), 4 * kPageSize);
}

TEST_F(TempFileManagerTest, ConcurrentSlotContentsStayDistinct) {
  TemporaryFileManager tfm(dir_);
  auto a = FileBuffer::Create(kPageSize).MoveValue();
  auto b = FileBuffer::Create(kPageSize).MoveValue();
  std::memset(a->data(), 1, kPageSize);
  std::memset(b->data(), 2, kPageSize);
  idx_t sa = tfm.WriteFixedBlock(*a).MoveValue();
  idx_t sb = tfm.WriteFixedBlock(*b).MoveValue();
  auto read_back = FileBuffer::Create(kPageSize).MoveValue();
  ASSERT_TRUE(tfm.ReadFixedBlock(sb, *read_back).ok());
  EXPECT_EQ(read_back->data()[0], 2);
  ASSERT_TRUE(tfm.ReadFixedBlock(sa, *read_back).ok());
  EXPECT_EQ(read_back->data()[0], 1);
}

TEST_F(TempFileManagerTest, VariableBlocksGetOwnFiles) {
  TemporaryFileManager tfm(dir_);
  auto big = FileBuffer::Create(3 * kPageSize + 999).MoveValue();
  std::memset(big->data(), 0xAB, big->size());
  ASSERT_TRUE(tfm.WriteVariableBlock(42, *big).ok());
  EXPECT_TRUE(FileSystem::Default().FileExists(tfm.VariableFilePath(42)));
  EXPECT_EQ(tfm.CurrentSize(), big->size());
  auto read_back = FileBuffer::Create(big->size()).MoveValue();
  ASSERT_TRUE(tfm.ReadVariableBlock(42, *read_back).ok());
  EXPECT_EQ(std::memcmp(read_back->data(), big->data(), big->size()), 0);
  // Reading removes the file.
  EXPECT_FALSE(FileSystem::Default().FileExists(tfm.VariableFilePath(42)));
  EXPECT_EQ(tfm.CurrentSize(), 0u);
}

TEST_F(TempFileManagerTest, FreeVariableBlockDeletesFile) {
  TemporaryFileManager tfm(dir_);
  auto buffer = FileBuffer::Create(kPageSize + 1).MoveValue();
  ASSERT_TRUE(tfm.WriteVariableBlock(7, *buffer).ok());
  tfm.FreeVariableBlock(7);
  EXPECT_FALSE(FileSystem::Default().FileExists(tfm.VariableFilePath(7)));
  EXPECT_EQ(tfm.CurrentSize(), 0u);
}

TEST_F(TempFileManagerTest, DestructorRemovesTempFile) {
  std::string temp_path;
  {
    TemporaryFileManager tfm(dir_);
    auto buffer = FileBuffer::Create(kPageSize).MoveValue();
    (void)tfm.WriteFixedBlock(*buffer);
    temp_path = tfm.FixedFilePath();
    EXPECT_TRUE(FileSystem::Default().FileExists(temp_path));
  }
  EXPECT_FALSE(FileSystem::Default().FileExists(temp_path));
}

TEST_F(TempFileManagerTest, PeakTracksHighWaterMark) {
  TemporaryFileManager tfm(dir_);
  auto buffer = FileBuffer::Create(kPageSize).MoveValue();
  std::vector<idx_t> slots;
  for (int i = 0; i < 8; i++) {
    slots.push_back(tfm.WriteFixedBlock(*buffer).MoveValue());
  }
  for (idx_t slot : slots) {
    tfm.FreeFixedSlot(slot);
  }
  EXPECT_EQ(tfm.CurrentSize(), 0u);
  EXPECT_EQ(tfm.PeakSize(), 8 * kPageSize);
  EXPECT_EQ(tfm.WriteCount(), 8u);
}

}  // namespace
}  // namespace ssagg
