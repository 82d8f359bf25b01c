// Supports Figure 2 / Section IV: the spillable page layout. Measures, for a
// layout with strings (int64 + double + varchar) and a fixed-width one
// (three int64 columns, the thin grouping queries' layout):
//
//   1. in-memory append / scan throughput of the row layout;
//   2. spill + reload: bytes written vs. logical bytes (the layout spills
//      raw pages, so the ratio is ~1 and NO serialization happens), and the
//      cost of the lazy pointer recomputation on reload;
//   3. the same data pushed through the classic serialize/deserialize
//      temporary-file path (RunWriter/RunReader) for comparison — this is
//      the overhead the layout exists to avoid.
//
// The input chunks are generated before any timed region, so "append" times
// only AppendRows, just as "write" times only RunWriter over rows that
// already exist. Every Status is checked; a failure aborts the bench.

#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "harness_util.h"
#include "sort/row_serializer.h"

using namespace ssagg;         // NOLINT(build/namespaces)
using namespace ssagg::bench;  // NOLINT(build/namespaces)

namespace {

constexpr idx_t kRows = 1 << 20;  // ~1M rows

double Seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

void Check(const Status &status, const char *what) {
  if (!status.ok()) {
    std::fprintf(stderr, "bench_fig2_layout: %s: %s\n", what,
                 status.ToString().c_str());
    std::exit(1);
  }
}

struct LayoutCase {
  const char *name;
  std::vector<LogicalTypeId> types;
  bool strings;
};

/// All kRows input rows, generated up front.
std::vector<DataChunk> MakeChunks(const LayoutCase &layout_case) {
  std::vector<DataChunk> chunks;
  chunks.reserve(kRows / kVectorSize);
  for (idx_t start = 0; start < kRows; start += kVectorSize) {
    DataChunk &chunk = chunks.emplace_back(layout_case.types);
    for (idx_t i = 0; i < kVectorSize; i++) {
      idx_t row = start + i;
      chunk.column(0).SetValue<int64_t>(i, static_cast<int64_t>(row));
      if (layout_case.strings) {
        chunk.column(1).SetValue<double>(i, row * 0.5);
        chunk.column(2).SetString(i,
                                  "string_payload_row_" + std::to_string(row));
      } else {
        chunk.column(1).SetValue<int64_t>(i, static_cast<int64_t>(row / 3));
        chunk.column(2).SetValue<int64_t>(i, static_cast<int64_t>(row * 7));
      }
    }
    chunk.SetCount(kVectorSize);
  }
  return chunks;
}

/// Appends every chunk; releases the pins after each one when `release`
/// (so pages can spill as the pool fills). Returns the seconds spent.
double AppendAll(TupleDataCollection &data, TupleDataAppendState &append,
                 const std::vector<DataChunk> &chunks, bool release) {
  auto t0 = std::chrono::steady_clock::now();
  for (const DataChunk &chunk : chunks) {
    Check(data.AppendRows(append, chunk, nullptr, chunk.size(), nullptr),
          "append");
    if (release) {
      append.Release();
    }
  }
  return Seconds(t0);
}

/// Scans the whole collection; returns rows/s.
double ScanAll(TupleDataCollection &data, const std::vector<LogicalTypeId> &types) {
  TupleDataScanState scan;
  data.InitScan(scan);
  DataChunk out(types);
  auto t0 = std::chrono::steady_clock::now();
  idx_t seen = 0;
  while (true) {
    auto more = data.Scan(scan, out);
    Check(more.status(), "scan");
    if (!more.value()) {
      break;
    }
    seen += out.size();
  }
  double scan_s = Seconds(t0);
  if (seen != kRows) {
    std::fprintf(stderr, "bench_fig2_layout: scanned %llu of %llu rows\n",
                 static_cast<unsigned long long>(seen),
                 static_cast<unsigned long long>(kRows));
    std::exit(1);
  }
  return seen / scan_s;
}

void RunCase(const BenchOptions &options, const LayoutCase &layout_case) {
  TupleDataLayout layout;
  layout.Initialize(layout_case.types);
  const std::vector<DataChunk> chunks = MakeChunks(layout_case);
  std::printf("%s layout (%llu rows, row width %llu B%s)\n", layout_case.name,
              static_cast<unsigned long long>(kRows),
              static_cast<unsigned long long>(layout.RowWidth()),
              layout_case.strings ? " + string heap" : "");

  // ---- 1. in-memory append + scan ----------------------------------------
  {
    BufferManager bm(options.temp_dir, 4096ULL << 20);
    TupleDataCollection data(bm, layout);
    TupleDataAppendState append;
    double append_s = AppendAll(data, append, chunks, /*release=*/false);
    append.Release();
    double scan_rate = ScanAll(data, layout_case.types);
    std::printf("  in-memory   append  %7.1f M rows/s   scan  %7.1f M rows/s "
                " (%s)\n",
                kRows / append_s / 1e6, scan_rate / 1e6,
                FormatBytes(data.SizeInBytes()).c_str());
  }

  // ---- 2. spill + reload through the buffer manager ----------------------
  {
    BufferManager bm(options.temp_dir, 16ULL << 20);  // force spilling
    TupleDataCollection data(bm, layout);
    TupleDataAppendState append;
    double append_s = AppendAll(data, append, chunks, /*release=*/true);
    auto snap = bm.Snapshot();
    double logical_mb = static_cast<double>(data.SizeInBytes()) / (1 << 20);
    double written_mb =
        static_cast<double>(snap.temp_writes) * kPageSize / (1 << 20);
    double scan_rate = ScanAll(data, layout_case.types);
    std::printf("  spilled     append  %7.1f M rows/s   scan  %7.1f M rows/s "
                " (reload + lazy pointer recompute)\n",
                kRows / append_s / 1e6, scan_rate / 1e6);
    std::printf("              page bytes written %.1f MiB for %.1f MiB of "
                "data (x%.2f, no serialization)\n",
                written_mb, logical_mb, written_mb / logical_mb);
  }

  // ---- 3. classic serialize/deserialize path for comparison --------------
  {
    BufferManager bm(options.temp_dir, 4096ULL << 20);
    TupleDataCollection data(bm, layout);
    TupleDataAppendState append;
    AppendAll(data, append, chunks, /*release=*/false);
    const std::string path = options.temp_dir + "/fig2_serialized.tmp";
    RunWriter writer(layout, path);
    Check(writer.Open(), "open run");
    auto t0 = std::chrono::steady_clock::now();
    TupleDataAppendState visit_state;
    Status write_status;
    Check(data.VisitRows(visit_state,
                         [&](data_ptr_t row) {
                           if (write_status.ok()) {
                             write_status = writer.WriteRow(row);
                           }
                         }),
          "visit rows");
    Check(write_status, "write row");
    Check(writer.Finish(), "finish run");
    double ser_s = Seconds(t0);
    visit_state.Release();

    RunReader reader(layout, path, writer.RowCount());
    Check(reader.Open(), "open reader");
    std::vector<data_ptr_t> rows;
    DataChunk out(layout_case.types);
    t0 = std::chrono::steady_clock::now();
    idx_t seen = 0;
    while (true) {
      rows.clear();
      auto n = reader.ReadBatch(kVectorSize, rows);
      Check(n.status(), "read batch");
      if (n.value() == 0) {
        break;
      }
      reader.GatherBatch(rows, out);
      seen += out.size();
    }
    double deser_s = Seconds(t0);
    Check(reader.Remove(), "remove run");
    std::printf("  serialized  write   %7.1f M rows/s   read  %7.1f M rows/s "
                " (classic temp-file (de)serialization)\n",
                kRows / ser_s / 1e6, seen / deser_s / 1e6);
  }
}

}  // namespace

int main() {
  BenchOptions options = BenchOptions::FromEnv();
  std::printf("Figure 2 / Section IV: spillable page layout\n\n");
  RunCase(options, {"string",
                    {LogicalTypeId::kInt64, LogicalTypeId::kDouble,
                     LogicalTypeId::kVarchar},
                    true});
  std::printf("\n");
  RunCase(options, {"fixed-width",
                    {LogicalTypeId::kInt64, LogicalTypeId::kInt64,
                     LogicalTypeId::kInt64},
                    false});

  std::printf("\nThe spillable layout writes pages verbatim and fixes "
              "pointers lazily on reload;\nthe serializing path pays a "
              "per-row encode/decode — the overhead Section IV's\n"
              "requirement 4 eliminates.\n");
  return 0;
}
