#ifndef SSAGG_COMMON_CONSTANTS_H_
#define SSAGG_COMMON_CONSTANTS_H_

#include <cstdint>
#include <cstddef>

namespace ssagg {

/// Fixed page size used for both persistent and paged temporary data.
/// The paper (Section III) uses 2^18 = 262,144 bytes (256 KiB), chosen for
/// OLAP workloads; having one size for persistent and temporary pages lets
/// the buffer manager reuse evicted buffers across the two kinds.
constexpr uint64_t kPageSize = 1ULL << 18;

/// Number of tuples in one vectorized batch (DuckDB-style vector size).
/// Section V: "Data is scanned from morsels in batches of up to 2,048 tuples."
constexpr uint64_t kVectorSize = 2048;

/// Number of tuples in one morsel handed to a worker thread. DuckDB uses
/// 122,880 (= 60 vectors); we keep the same value.
constexpr uint64_t kMorselSize = 60 * kVectorSize;

/// Capacity of the fixed-size thread-local pre-aggregation hash table
/// (Section V: 2^17 = 131,072 entries).
constexpr uint64_t kPhase1HashTableCapacity = 1ULL << 17;

/// The thread-local hash table is reset once it is two-thirds full
/// (Section V, "RAM-Oblivious": threshold experimentally determined).
constexpr double kHashTableResetFillRatio = 2.0 / 3.0;

/// Invalid block / file identifiers.
constexpr uint64_t kInvalidBlockId = ~0ULL;
constexpr uint64_t kInvalidIndex = ~0ULL;

using idx_t = uint64_t;
using data_t = uint8_t;
using data_ptr_t = uint8_t *;
using const_data_ptr_t = const uint8_t *;
using hash_t = uint64_t;
using block_id_t = uint64_t;

}  // namespace ssagg

#endif  // SSAGG_COMMON_CONSTANTS_H_
