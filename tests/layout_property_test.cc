// Property sweep for the spillable page layout: random schemas and random
// data (with NULLs and mixed inline/heap strings) must round-trip through
// append -> (optional spill/reload cycles) -> scan byte-for-byte, for every
// combination in the sweep.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/file_system.h"
#include "common/hash.h"
#include "common/random.h"
#include "layout/tuple_data_collection.h"

namespace ssagg {
namespace {

struct LayoutSweepParams {
  uint64_t seed;
  idx_t rows;
  idx_t memory_pages;  // pool size; small values force spill cycles
  int scan_rounds;
};

std::string ParamName(const ::testing::TestParamInfo<LayoutSweepParams> &info) {
  const auto &p = info.param;
  return "s" + std::to_string(p.seed) + "_r" + std::to_string(p.rows) +
         "_m" + std::to_string(p.memory_pages) + "_x" +
         std::to_string(p.scan_rounds);
}

template <typename Params>
class LayoutSweepTest : public ::testing::TestWithParam<Params> {
 protected:
  void SetUp() override {
    temp_dir_ = ::testing::TempDir() + "ssagg_layout_prop_" + std::to_string(::getpid());
    (void)FileSystem::Default().CreateDirectories(temp_dir_);
  }
  std::string temp_dir_;
};

using LayoutPropertyTest = LayoutSweepTest<LayoutSweepParams>;

const LogicalTypeId kTypePool[] = {LogicalTypeId::kInt32,
                                   LogicalTypeId::kInt64,
                                   LogicalTypeId::kDouble,
                                   LogicalTypeId::kVarchar,
                                   LogicalTypeId::kDate};

std::vector<LogicalTypeId> RandomSchema(RandomEngine &rng) {
  idx_t ncols = 1 + rng.NextRange(6);
  std::vector<LogicalTypeId> types;
  bool has_string = false;
  for (idx_t c = 0; c < ncols; c++) {
    auto type = kTypePool[rng.NextRange(5)];
    has_string |= type == LogicalTypeId::kVarchar;
    types.push_back(type);
  }
  if (!has_string) {
    types.push_back(LogicalTypeId::kVarchar);  // always exercise the heap
  }
  return types;
}

/// Deterministic value of (seed, row, column); used to fill and to verify.
std::string ExpectedString(uint64_t seed, idx_t row, idx_t col) {
  uint64_t r = HashUint64(seed * 1315423911ULL + row * 31 + col);
  idx_t len = r % 40;  // 0..39: mixes inlined and non-inlined
  std::string s;
  s.reserve(len);
  for (idx_t i = 0; i < len; i++) {
    s.push_back(static_cast<char>('a' + ((r >> (i % 32)) + i) % 26));
  }
  return s;
}

bool IsNull(uint64_t seed, idx_t row, idx_t col) {
  return HashUint64(seed + row * 7919 + col * 104729) % 11 == 0;
}

/// Which values of a column are NULL: column `all_null` in every row,
/// column `no_null` in none (the all-valid fast paths), any other column
/// in about one row of eleven.
struct NullPattern {
  idx_t all_null = kInvalidIndex;
  idx_t no_null = kInvalidIndex;

  bool operator()(uint64_t seed, idx_t row, idx_t col) const {
    if (col == all_null || col == no_null) {
      return col == all_null;
    }
    return IsNull(seed, row, col);
  }
};

int64_t ExpectedNumeric(uint64_t seed, idx_t row, idx_t col) {
  return static_cast<int64_t>(HashUint64(seed ^ (row * 131 + col)));
}

/// Fills rows [start, start + n) of the input.
void FillChunk(DataChunk &chunk, const std::vector<LogicalTypeId> &types,
               uint64_t seed, idx_t start, idx_t n, NullPattern nulls = {}) {
  for (idx_t c = 0; c < types.size(); c++) {
    Vector &vec = chunk.column(c);
    for (idx_t i = 0; i < n; i++) {
      idx_t row = start + i;
      if (nulls(seed, row, c)) {
        vec.validity().SetInvalid(i);
        continue;
      }
      switch (types[c]) {
        case LogicalTypeId::kBoolean:
          vec.SetValue<uint8_t>(
              i, static_cast<uint8_t>(ExpectedNumeric(seed, row, c) & 1));
          break;
        case LogicalTypeId::kInt32:
        case LogicalTypeId::kDate:
          vec.SetValue<int32_t>(
              i, static_cast<int32_t>(ExpectedNumeric(seed, row, c)));
          break;
        case LogicalTypeId::kInt64:
          vec.SetValue<int64_t>(i, ExpectedNumeric(seed, row, c));
          break;
        case LogicalTypeId::kDouble:
          vec.SetValue<double>(
              i, static_cast<double>(ExpectedNumeric(seed, row, c)) * 0.125);
          break;
        case LogicalTypeId::kVarchar:
          vec.SetString(i, ExpectedString(seed, row, c));
          break;
      }
    }
  }
  chunk.SetCount(n);
}

template <typename T>
T Load(const_data_ptr_t slot) {
  T value;
  std::memcpy(&value, slot, sizeof(T));
  return value;
}

/// Compares the value at `slot` (a vector slot or a row slot) with the
/// expected value of (seed, row, col).
::testing::AssertionResult ValueMatches(LogicalTypeId type, uint64_t seed,
                                        idx_t row, idx_t col,
                                        const_data_ptr_t slot) {
  bool same = true;
  switch (type) {
    case LogicalTypeId::kBoolean:
      same = Load<uint8_t>(slot) ==
             static_cast<uint8_t>(ExpectedNumeric(seed, row, col) & 1);
      break;
    case LogicalTypeId::kInt32:
    case LogicalTypeId::kDate:
      same = Load<int32_t>(slot) ==
             static_cast<int32_t>(ExpectedNumeric(seed, row, col));
      break;
    case LogicalTypeId::kInt64:
      same = Load<int64_t>(slot) == ExpectedNumeric(seed, row, col);
      break;
    case LogicalTypeId::kDouble:
      same = Load<double>(slot) ==
             static_cast<double>(ExpectedNumeric(seed, row, col)) * 0.125;
      break;
    case LogicalTypeId::kVarchar:
      same = Load<string_t>(slot).ToString() == ExpectedString(seed, row, col);
      break;
  }
  if (!same) {
    return ::testing::AssertionFailure()
           << "row " << row << " col " << col << " (" << TypeName(type)
           << ") holds the wrong value";
  }
  return ::testing::AssertionSuccess();
}

/// Checks gathered output row `i` against input row `row`.
::testing::AssertionResult VectorRowMatches(
    const DataChunk &out, idx_t i, const std::vector<LogicalTypeId> &types,
    uint64_t seed, idx_t row, NullPattern nulls = {}) {
  for (idx_t c = 0; c < types.size(); c++) {
    const Vector &vec = out.column(c);
    const bool null = nulls(seed, row, c);
    if (vec.validity().RowIsValid(i) == null) {
      return ::testing::AssertionFailure()
             << "row " << row << " col " << c << " validity";
    }
    if (null) {
      continue;
    }
    auto match =
        ValueMatches(types[c], seed, row, c, vec.data() + i * vec.width());
    if (!match) {
      return match;
    }
  }
  return ::testing::AssertionSuccess();
}

/// Checks a materialized row (through its address, as the hash table reads
/// it) against input row `row`: values, validity bits, zeroed NULL slots
/// and a zeroed aggregate-state area.
::testing::AssertionResult StoredRowMatches(
    const TupleDataLayout &layout, const_data_ptr_t stored, uint64_t seed,
    idx_t row, NullPattern nulls) {
  for (idx_t c = 0; c < layout.ColumnCount(); c++) {
    const bool null = nulls(seed, row, c);
    const_data_ptr_t slot = stored + layout.ColumnOffset(c);
    if (layout.RowIsColumnValid(stored, c) == null) {
      return ::testing::AssertionFailure()
             << "row " << row << " col " << c << " validity bit";
    }
    if (!null) {
      auto match = ValueMatches(layout.ColumnType(c), seed, row, c, slot);
      if (!match) {
        return match;
      }
      continue;
    }
    for (idx_t b = 0; b < TypeWidth(layout.ColumnType(c)); b++) {
      if (slot[b] != 0) {
        return ::testing::AssertionFailure()
               << "row " << row << " col " << c << ": NULL slot not zeroed";
      }
    }
  }
  for (idx_t b = 0; b < layout.AggregateWidth(); b++) {
    if (stored[layout.AggregateOffset() + b] != 0) {
      return ::testing::AssertionFailure()
             << "row " << row << ": aggregate state not zeroed";
    }
  }
  return ::testing::AssertionSuccess();
}

TEST_P(LayoutPropertyTest, RoundTripUnderSpillPressure) {
  const auto &p = GetParam();
  RandomEngine rng(p.seed);
  auto types = RandomSchema(rng);
  BufferManager bm(temp_dir_, p.memory_pages * kPageSize);
  TupleDataLayout layout;
  layout.Initialize(types);
  TupleDataCollection data(bm, layout);
  TupleDataAppendState append;

  DataChunk chunk(types);
  for (idx_t start = 0; start < p.rows; start += kVectorSize) {
    idx_t n = std::min(kVectorSize, p.rows - start);
    FillChunk(chunk, types, p.seed, start, n);
    ASSERT_TRUE(data.AppendRows(append, chunk, nullptr, n, nullptr).ok());
    append.Release();  // allow spilling between chunks
    chunk.Reset();
  }
  ASSERT_EQ(data.Count(), p.rows);

  // Multiple scan rounds: each one may force the others' pages out again.
  DataChunk out(types);
  for (int round = 0; round < p.scan_rounds; round++) {
    TupleDataScanState scan;
    data.InitScan(scan);
    idx_t row = 0;
    while (true) {
      auto more = data.Scan(scan, out);
      ASSERT_TRUE(more.ok()) << more.status().ToString();
      if (!more.value()) {
        break;
      }
      for (idx_t i = 0; i < out.size(); i++, row++) {
        ASSERT_TRUE(VectorRowMatches(out, i, types, p.seed, row));
      }
    }
    ASSERT_EQ(row, p.rows) << "round " << round;
  }
  // Ample-memory runs must never have touched the temporary file.
  if (p.memory_pages >= 512) {
    EXPECT_EQ(bm.Snapshot().temp_writes, 0u);
  } else {
    EXPECT_GT(bm.Snapshot().temp_writes, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LayoutPropertyTest,
    ::testing::Values(LayoutSweepParams{11, 30000, 512, 1},
                      LayoutSweepParams{22, 60000, 8, 2},
                      LayoutSweepParams{33, 50000, 6, 3},
                      LayoutSweepParams{44, 2048, 512, 1},
                      LayoutSweepParams{55, 100000, 12, 2},
                      LayoutSweepParams{66, 1, 512, 1}),
    ParamName);

// Batch sweep over the layouts and selections the aggregation operator
// appends with: all-fixed-width schemas (the thin-grouping layout), scattered
// or permuted selections (what PartitionedTupleData::Append passes per
// partition), returned row addresses, aggregate-state areas, an all-NULL
// column and batches that straddle page boundaries.
enum class SelMode { kNone, kSubset, kShuffled };

struct BatchSweepParams {
  uint64_t seed;
  idx_t rows;  // input rows offered; `sel` picks the appended ones
  bool strings;  // false: fixed-width columns only
  SelMode sel;
  idx_t aggr_width;  // aggregate-state bytes per row
  idx_t memory_pages;
};

std::string BatchParamString(const BatchSweepParams &p) {
  static const char *kSelNames[] = {"all", "subset", "shuffled"};
  return "s" + std::to_string(p.seed) + "_r" + std::to_string(p.rows) +
         (p.strings ? "_str" : "_fixed") + "_" +
         kSelNames[static_cast<int>(p.sel)] + "_a" +
         std::to_string(p.aggr_width) + "_m" + std::to_string(p.memory_pages);
}

std::string BatchParamName(
    const ::testing::TestParamInfo<BatchSweepParams> &info) {
  return BatchParamString(info.param);
}

// gtest prints parameters into test names; printing the struct's bytes
// would include its padding.
void PrintTo(const BatchSweepParams &p, std::ostream *os) {
  *os << BatchParamString(p);
}

using LayoutBatchTest = LayoutSweepTest<BatchSweepParams>;

// Fixed-width pool includes BOOLEAN so every scatter/gather width (1, 4, 8
// and 16 bytes) is covered.
const LogicalTypeId kFixedTypePool[] = {
    LogicalTypeId::kBoolean, LogicalTypeId::kInt32, LogicalTypeId::kInt64,
    LogicalTypeId::kDouble, LogicalTypeId::kDate};

std::vector<LogicalTypeId> RandomBatchSchema(RandomEngine &rng,
                                             bool strings) {
  std::vector<LogicalTypeId> types =
      strings ? RandomSchema(rng) : std::vector<LogicalTypeId>{};
  if (!strings) {
    idx_t ncols = 1 + rng.NextRange(6);
    for (idx_t c = 0; c < ncols; c++) {
      types.push_back(kFixedTypePool[rng.NextRange(5)]);
    }
  }
  // The last column is NULL in every row.
  types.push_back(strings ? LogicalTypeId::kVarchar
                          : kFixedTypePool[rng.NextRange(5)]);
  return types;
}

/// Writes the batch's selection into `sel` and returns its size: a sorted
/// random subset, or a random permutation of one.
idx_t RandomSelection(RandomEngine &rng, SelMode mode, idx_t n, idx_t *sel) {
  idx_t count = 0;
  for (idx_t r = 0; r < n; r++) {
    if (mode == SelMode::kNone || rng.NextRange(4) != 0) {
      sel[count++] = r;
    }
  }
  if (mode == SelMode::kShuffled) {
    for (idx_t i = count; i > 1; i--) {
      std::swap(sel[i - 1], sel[rng.NextRange(i)]);
    }
  }
  return count;
}

TEST_P(LayoutBatchTest, SelectedBatchesRoundTrip) {
  const BatchSweepParams &p = GetParam();
  RandomEngine rng(p.seed);
  const auto types = RandomBatchSchema(rng, p.strings);
  // The first column is never NULL, the last one always.
  const NullPattern nulls{types.size() - 1, 0};
  BufferManager bm(temp_dir_, p.memory_pages * kPageSize);
  TupleDataLayout layout;
  layout.Initialize(types, p.aggr_width);
  TupleDataCollection data(bm, layout);
  TupleDataAppendState append;
  const idx_t rows_per_page = layout.RowsPerPage();

  DataChunk chunk(types);
  std::vector<idx_t> sel(kVectorSize);
  std::vector<data_ptr_t> ptrs(kVectorSize);
  std::vector<idx_t> appended;  // input row of each stored row, in order
  bool straddled = false;
  for (idx_t start = 0; start < p.rows; start += kVectorSize) {
    const idx_t n = std::min(kVectorSize, p.rows - start);
    FillChunk(chunk, types, p.seed, start, n, nulls);
    const idx_t count = RandomSelection(rng, p.sel, n, sel.data());
    const idx_t *batch_sel = p.sel == SelMode::kNone ? nullptr : sel.data();
    ASSERT_TRUE(
        data.AppendRows(append, chunk, batch_sel, count, ptrs.data()).ok());
    // Pages fill in order, so a batch straddles a page boundary exactly
    // when its first and last rows land on different pages.
    const idx_t before = appended.size();
    straddled |= count > 0 && before / rows_per_page !=
                                  (before + count - 1) / rows_per_page;
    // The returned addresses are valid while the append pins are held:
    // each must hold its selected input row.
    for (idx_t i = 0; i < count; i++) {
      const idx_t row = start + (batch_sel ? batch_sel[i] : i);
      ASSERT_TRUE(StoredRowMatches(layout, ptrs[i], p.seed, row, nulls))
          << "batch at " << start << ", position " << i;
      appended.push_back(row);
    }
    append.Release();  // allow spilling between batches
    chunk.Reset();
  }
  ASSERT_EQ(data.Count(), appended.size());
  EXPECT_EQ(data.RowPageCount(),
            (appended.size() + rows_per_page - 1) / rows_per_page);
  EXPECT_TRUE(straddled) << "no batch crossed a page boundary";

  DataChunk out(types);
  for (int round = 0; round < 2; round++) {
    TupleDataScanState scan;
    data.InitScan(scan);
    idx_t pos = 0;
    while (true) {
      auto more = data.Scan(scan, out);
      ASSERT_TRUE(more.ok()) << more.status().ToString();
      if (!more.value()) {
        break;
      }
      for (idx_t i = 0; i < out.size(); i++, pos++) {
        ASSERT_LT(pos, appended.size());
        ASSERT_TRUE(
            VectorRowMatches(out, i, types, p.seed, appended[pos], nulls));
      }
    }
    ASSERT_EQ(pos, appended.size()) << "round " << round;
  }
  if (p.memory_pages < 64) {
    EXPECT_GT(bm.Snapshot().temp_writes, 0u) << "expected spill cycles";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LayoutBatchTest,
    ::testing::Values(
        BatchSweepParams{101, 20000, false, SelMode::kNone, 0, 512},
        BatchSweepParams{102, 30000, false, SelMode::kSubset, 16, 512},
        BatchSweepParams{103, 40000, false, SelMode::kShuffled, 200, 8},
        BatchSweepParams{104, 6000, false, SelMode::kShuffled, 1000, 512},
        BatchSweepParams{105, 30000, true, SelMode::kSubset, 24, 8},
        BatchSweepParams{106, 30000, true, SelMode::kShuffled, 0, 512},
        BatchSweepParams{107, 50000, true, SelMode::kNone, 8, 6}),
    BatchParamName);

}  // namespace
}  // namespace ssagg
