#ifndef SSAGG_COMPRESSION_CODEC_H_
#define SSAGG_COMPRESSION_CODEC_H_

#include <vector>

#include "common/status.h"
#include "common/string_heap.h"
#include "common/vector.h"

namespace ssagg {

/// Lightweight compression codecs for persistent column segments. DuckDB's
/// columnar storage is compressed, which is why persistent pages have no
/// dirty state and can always be evicted for free (paper Section III,
/// "Compatibility": "it is not generally possible to perform in-place
/// updates, as pages are always fully rewritten").
enum class Codec : uint8_t {
  kPlain = 0,       // raw fixed-width values
  kForBitpack = 1,  // frame-of-reference + bit-packing (integers)
  kRle = 2,         // run-length encoding (integers)
  kStringPlain = 3, // offsets + character data
};

/// Compresses rows [0, count) of `input` into `out` (appended). Numeric
/// columns choose the smallest of plain / FoR-bitpacking / RLE; VARCHAR
/// columns use the string format. NULL rows are recorded in a validity
/// bitmap and their payload is stored as zero/empty.
///
/// Segment format:
///   uint8 codec | uint32 count | validity bits ceil(count/8) | payload
Status CompressSegment(const Vector &input, idx_t count,
                       std::vector<data_t> &out);

/// A fully decoded segment, held by scan states so consecutive vectors of
/// the same segment decompress only once.
struct DecodedSegment {
  LogicalTypeId type = LogicalTypeId::kInt64;
  idx_t count = 0;
  std::vector<data_t> values;     // count * TypeWidth(type) bytes
  std::vector<uint8_t> validity;  // 1 bit per row, set = valid
  StringHeap heap;                // character data of decoded strings

  bool RowIsValid(idx_t row) const {
    return (validity[row >> 3] >> (row & 7)) & 1;
  }
};

/// Decodes a segment produced by CompressSegment.
Status DecompressSegment(const_data_ptr_t data, idx_t size,
                         LogicalTypeId type, DecodedSegment &out);

/// Copies rows [offset, offset + count) of a decoded segment into the
/// first `count` rows of `out` (strings are copied into the vector heap).
void CopyDecodedRows(const DecodedSegment &segment, idx_t offset, idx_t count,
                     Vector &out);

const char *CodecName(Codec codec);

}  // namespace ssagg

#endif  // SSAGG_COMPRESSION_CODEC_H_
