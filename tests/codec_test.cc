#include "compression/codec.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/random.h"

namespace ssagg {
namespace {

Codec SegmentCodec(const std::vector<data_t> &segment) {
  return static_cast<Codec>(segment[0]);
}

/// Compresses `input` rows [0, count), decompresses, and checks that every
/// value and validity bit round-trips. Returns the codec that was chosen.
Codec RoundTrip(const Vector &input, idx_t count) {
  std::vector<data_t> segment;
  Status status = CompressSegment(input, count, segment);
  EXPECT_TRUE(status.ok()) << status.ToString();

  DecodedSegment decoded;
  status = DecompressSegment(segment.data(), segment.size(), input.type(),
                             decoded);
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(decoded.count, count);

  Vector output(input.type());
  CopyDecodedRows(decoded, 0, count, output);
  for (idx_t i = 0; i < count; i++) {
    EXPECT_EQ(input.validity().RowIsValid(i), output.validity().RowIsValid(i))
        << "validity of row " << i;
    if (!input.validity().RowIsValid(i)) {
      continue;
    }
    if (input.type() == LogicalTypeId::kVarchar) {
      EXPECT_EQ(input.GetString(i).View(), output.GetString(i).View())
          << "string row " << i;
    } else if (input.type() == LogicalTypeId::kInt32) {
      EXPECT_EQ(input.GetValue<int32_t>(i), output.GetValue<int32_t>(i))
          << "row " << i;
    } else if (input.type() == LogicalTypeId::kDouble) {
      EXPECT_EQ(input.GetValue<double>(i), output.GetValue<double>(i))
          << "row " << i;
    } else {
      EXPECT_EQ(input.GetValue<int64_t>(i), output.GetValue<int64_t>(i))
          << "row " << i;
    }
  }
  return SegmentCodec(segment);
}

TEST(CodecTest, SingleValueRoundTrips) {
  Vector input(LogicalTypeId::kInt64);
  input.SetValue<int64_t>(0, 42);
  RoundTrip(input, 1);
}

TEST(CodecTest, ConstantVectorChoosesZeroBitFrame) {
  // All-equal values: a zero-bit frame-of-reference (9 payload bytes) beats
  // even a single RLE run (16 bytes).
  Vector input(LogicalTypeId::kInt64);
  for (idx_t i = 0; i < kVectorSize; i++) {
    input.SetValue<int64_t>(i, 7777);
  }
  EXPECT_EQ(RoundTrip(input, kVectorSize), Codec::kForBitpack);
  std::vector<data_t> segment;
  ASSERT_TRUE(CompressSegment(input, kVectorSize, segment).ok());
  idx_t header = 1 + 4 + (kVectorSize + 7) / 8;
  EXPECT_EQ(segment.size(), header + 9);  // min value + bit width, no bits
}

TEST(CodecTest, FewWideRunsChooseRle) {
  // Eight long runs of far-apart values: bit-packing needs ~53 bits per
  // value, RLE needs 12 bytes per run.
  Vector input(LogicalTypeId::kInt64);
  for (idx_t i = 0; i < kVectorSize; i++) {
    input.SetValue<int64_t>(
        i, static_cast<int64_t>(i / 256) * 1000000000000000LL);
  }
  EXPECT_EQ(RoundTrip(input, kVectorSize), Codec::kRle);

  std::vector<data_t> segment;
  ASSERT_TRUE(CompressSegment(input, kVectorSize, segment).ok());
  idx_t header = 1 + 4 + (kVectorSize + 7) / 8;
  EXPECT_EQ(segment.size(), header + 4 + 8 * 12);
}

TEST(CodecTest, AllDistinctSmallRangeChoosesBitpack) {
  Vector input(LogicalTypeId::kInt64);
  for (idx_t i = 0; i < kVectorSize; i++) {
    input.SetValue<int64_t>(i, 1000000 + static_cast<int64_t>(i));
  }
  // All-distinct defeats RLE; the 11-bit range defeats plain.
  EXPECT_EQ(RoundTrip(input, kVectorSize), Codec::kForBitpack);
}

TEST(CodecTest, IncompressibleValuesFallBackToPlain) {
  Vector input(LogicalTypeId::kInt64);
  RandomEngine rng(0xC0DEC);
  for (idx_t i = 0; i < kVectorSize; i++) {
    input.SetValue<int64_t>(i, static_cast<int64_t>(rng.NextUint64()));
  }
  // Pin the frame to the full 64-bit range so bit-packing cannot win.
  input.SetValue<int64_t>(0, std::numeric_limits<int64_t>::min());
  input.SetValue<int64_t>(1, std::numeric_limits<int64_t>::max());
  EXPECT_EQ(RoundTrip(input, kVectorSize), Codec::kPlain);
}

TEST(CodecTest, MinMaxInt64FrameRoundTrips) {
  // The frame spans the entire int64 range: the frame-of-reference range
  // computation must not overflow (it is done in uint64).
  Vector input(LogicalTypeId::kInt64);
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  const int64_t values[] = {kMin, kMax, 0, -1, 1, kMin + 1, kMax - 1};
  idx_t count = sizeof(values) / sizeof(values[0]);
  for (idx_t i = 0; i < count; i++) {
    input.SetValue<int64_t>(i, values[i]);
  }
  RoundTrip(input, count);
}

TEST(CodecTest, NegativeFrameOfReferenceRoundTrips) {
  Vector input(LogicalTypeId::kInt64);
  for (idx_t i = 0; i < 512; i++) {
    input.SetValue<int64_t>(i, -100000 + static_cast<int64_t>(i * 3));
  }
  EXPECT_EQ(RoundTrip(input, 512), Codec::kForBitpack);
}

TEST(CodecTest, BitWidthBoundariesRoundTrip) {
  // For each width B, all-distinct values whose range needs exactly B bits:
  // byte boundaries, word boundaries, and the extremes.
  for (idx_t bits : {idx_t(1), idx_t(2), idx_t(7), idx_t(8), idx_t(9),
                     idx_t(15), idx_t(16), idx_t(17), idx_t(31), idx_t(32),
                     idx_t(33), idx_t(63)}) {
    Vector input(LogicalTypeId::kInt64);
    constexpr idx_t kCount = 256;
    uint64_t range = (uint64_t(1) << bits) - 1;
    // Cycle through the frame so neighbours differ (RLE loses) and the
    // maximum delta is exactly 2^bits - 1.
    for (idx_t i = 0; i < kCount - 1; i++) {
      input.SetValue<int64_t>(i, static_cast<int64_t>(i % (range + 1)));
    }
    input.SetValue<int64_t>(kCount - 1, static_cast<int64_t>(range));
    EXPECT_EQ(RoundTrip(input, kCount), Codec::kForBitpack)
        << "bits=" << bits;
  }
}

TEST(CodecTest, Int32RoundTripsAllCodecs) {
  {
    Vector rle(LogicalTypeId::kInt32);
    for (idx_t i = 0; i < kVectorSize; i++) {
      rle.SetValue<int32_t>(i, static_cast<int32_t>(i / 256));
    }
    EXPECT_EQ(RoundTrip(rle, kVectorSize), Codec::kRle);
  }
  {
    Vector bitpack(LogicalTypeId::kInt32);
    for (idx_t i = 0; i < kVectorSize; i++) {
      bitpack.SetValue<int32_t>(i, static_cast<int32_t>(i) - 1024);
    }
    EXPECT_EQ(RoundTrip(bitpack, kVectorSize), Codec::kForBitpack);
  }
  {
    Vector plain(LogicalTypeId::kInt32);
    RandomEngine rng(0x3217);
    for (idx_t i = 0; i < kVectorSize; i++) {
      plain.SetValue<int32_t>(i, static_cast<int32_t>(rng.NextUint64()));
    }
    plain.SetValue<int32_t>(0, std::numeric_limits<int32_t>::min());
    plain.SetValue<int32_t>(1, std::numeric_limits<int32_t>::max());
    EXPECT_EQ(RoundTrip(plain, kVectorSize), Codec::kPlain);
  }
}

TEST(CodecTest, NullsPreservedAcrossCodecs) {
  // Every third row NULL, under each integer codec's preferred shape.
  for (int shape = 0; shape < 3; shape++) {
    Vector input(LogicalTypeId::kInt64);
    RandomEngine rng(7 + shape);
    for (idx_t i = 0; i < kVectorSize; i++) {
      int64_t v = shape == 0   ? 5
                  : shape == 1 ? static_cast<int64_t>(i)
                               : static_cast<int64_t>(rng.NextUint64());
      input.SetValue<int64_t>(i, v);
      if (i % 3 == 0) {
        input.validity().SetInvalid(i);
      }
    }
    RoundTrip(input, kVectorSize);
  }
}

TEST(CodecTest, StringsRoundTripWithEmptyLongAndNull) {
  Vector input(LogicalTypeId::kVarchar);
  std::vector<std::string> originals;
  for (idx_t i = 0; i < 300; i++) {
    if (i % 5 == 0) {
      originals.push_back("");
    } else if (i % 7 == 0) {
      originals.push_back(std::string(100 + i, 'x'));  // non-inlined
    } else {
      originals.push_back(std::to_string(i) + "s");
    }
  }
  for (idx_t i = 0; i < originals.size(); i++) {
    input.SetString(i, originals[i]);
    if (i % 11 == 0) {
      input.validity().SetInvalid(i);
    }
  }
  EXPECT_EQ(RoundTrip(input, originals.size()), Codec::kStringPlain);
}

TEST(CodecTest, DoublesUsePlainStorage) {
  Vector input(LogicalTypeId::kDouble);
  for (idx_t i = 0; i < 1000; i++) {
    input.SetValue<double>(i, 0.5 * static_cast<double>(i));
  }
  EXPECT_EQ(RoundTrip(input, 1000), Codec::kPlain);
}

TEST(CodecTest, EmptySegmentDecodes) {
  // CompressSegment requires rows, but a hand-crafted zero-count segment
  // (codec, count=0, no validity, no payload) must decode cleanly.
  std::vector<data_t> segment;
  segment.push_back(static_cast<data_t>(Codec::kPlain));
  uint32_t zero = 0;
  segment.insert(segment.end(), reinterpret_cast<data_t *>(&zero),
                 reinterpret_cast<data_t *>(&zero) + 4);
  DecodedSegment decoded;
  Status status = DecompressSegment(segment.data(), segment.size(),
                                    LogicalTypeId::kInt64, decoded);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(decoded.count, 0u);
}

TEST(CodecTest, TruncatedSegmentsReturnCleanErrors) {
  // Build one segment per codec, then decompress every proper prefix:
  // each must fail with a Status, never crash or read out of bounds.
  std::vector<std::vector<data_t>> segments;
  {
    Vector rle(LogicalTypeId::kInt64);
    Vector bitpack(LogicalTypeId::kInt64);
    Vector plain(LogicalTypeId::kInt64);
    RandomEngine rng(99);
    for (idx_t i = 0; i < 500; i++) {
      rle.SetValue<int64_t>(i, 3);
      bitpack.SetValue<int64_t>(i, static_cast<int64_t>(i));
      plain.SetValue<int64_t>(i, static_cast<int64_t>(rng.NextUint64()));
    }
    for (const Vector *v : {&rle, &bitpack, &plain}) {
      segments.emplace_back();
      ASSERT_TRUE(CompressSegment(*v, 500, segments.back()).ok());
    }
    Vector strings(LogicalTypeId::kVarchar);
    for (idx_t i = 0; i < 100; i++) {
      strings.SetString(i, "payload_" + std::to_string(i));
    }
    segments.emplace_back();
    ASSERT_TRUE(CompressSegment(strings, 100, segments.back()).ok());
  }
  for (const auto &segment : segments) {
    LogicalTypeId type = SegmentCodec(segment) == Codec::kStringPlain
                             ? LogicalTypeId::kVarchar
                             : LogicalTypeId::kInt64;
    for (idx_t len = 0; len < segment.size(); len++) {
      DecodedSegment decoded;
      Status status = DecompressSegment(segment.data(), len, type, decoded);
      EXPECT_FALSE(status.ok())
          << CodecName(SegmentCodec(segment)) << " prefix of " << len
          << " bytes decoded successfully";
    }
  }
}

TEST(CodecTest, UnknownCodecByteIsRejected) {
  std::vector<data_t> segment;
  segment.push_back(0x7F);
  uint32_t count = 1;
  segment.insert(segment.end(), reinterpret_cast<data_t *>(&count),
                 reinterpret_cast<data_t *>(&count) + 4);
  segment.push_back(0x01);  // validity
  segment.resize(segment.size() + 8, 0);
  DecodedSegment decoded;
  EXPECT_FALSE(DecompressSegment(segment.data(), segment.size(),
                                 LogicalTypeId::kInt64, decoded)
                   .ok());
}

TEST(CodecTest, CopyDecodedRowsHonorsOffset) {
  Vector input(LogicalTypeId::kInt64);
  for (idx_t i = 0; i < 1024; i++) {
    input.SetValue<int64_t>(i, static_cast<int64_t>(i * 10));
    if (i % 4 == 0) {
      input.validity().SetInvalid(i);
    }
  }
  std::vector<data_t> segment;
  ASSERT_TRUE(CompressSegment(input, 1024, segment).ok());
  DecodedSegment decoded;
  ASSERT_TRUE(DecompressSegment(segment.data(), segment.size(),
                                LogicalTypeId::kInt64, decoded)
                  .ok());
  Vector out(LogicalTypeId::kInt64);
  CopyDecodedRows(decoded, 100, 50, out);
  for (idx_t i = 0; i < 50; i++) {
    idx_t row = 100 + i;
    ASSERT_EQ(out.validity().RowIsValid(i), row % 4 != 0);
    if (row % 4 != 0) {
      EXPECT_EQ(out.GetValue<int64_t>(i), static_cast<int64_t>(row * 10));
    }
  }
}

}  // namespace
}  // namespace ssagg
