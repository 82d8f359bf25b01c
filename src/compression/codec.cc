#include "compression/codec.h"

#include <algorithm>
#include <cstring>

#include "common/string_type.h"

namespace ssagg {

namespace {

void AppendBytes(std::vector<data_t> &out, const void *data, idx_t bytes) {
  if (bytes == 0) {
    return;  // `data` may be null (e.g. an empty heap) — don't touch it
  }
  auto *src = static_cast<const data_t *>(data);
  out.insert(out.end(), src, src + bytes);
}

template <typename T>
void AppendValue(std::vector<data_t> &out, T value) {
  AppendBytes(out, &value, sizeof(T));
}

template <typename T>
T ReadValue(const_data_ptr_t &cursor) {
  T value;
  std::memcpy(&value, cursor, sizeof(T));
  cursor += sizeof(T);
  return value;
}

/// Loads integer values (int32/int64/date) widened to int64.
void LoadIntegers(const Vector &input, idx_t count, idx_t width,
                  std::vector<int64_t> &values) {
  values.resize(count);
  for (idx_t i = 0; i < count; i++) {
    if (!input.validity().RowIsValid(i)) {
      values[i] = 0;
      continue;
    }
    if (width == 4) {
      int32_t v;
      std::memcpy(&v, input.data() + i * 4, 4);
      values[i] = v;
    } else {
      std::memcpy(&values[i], input.data() + i * 8, 8);
    }
  }
}

idx_t BitsNeeded(uint64_t range) {
  idx_t bits = 0;
  while (range > 0) {
    bits++;
    range >>= 1;
  }
  return bits;
}

/// Appends `bits` low bits of each delta, LSB-first bit stream.
void PackBits(const std::vector<uint64_t> &deltas, idx_t bits,
              std::vector<data_t> &out) {
  idx_t total_bits = deltas.size() * bits;
  idx_t start = out.size();
  out.resize(start + (total_bits + 7) / 8, 0);
  idx_t bit_pos = 0;
  for (uint64_t delta : deltas) {
    for (idx_t b = 0; b < bits; b++) {
      if ((delta >> b) & 1) {
        out[start + ((bit_pos + b) >> 3)] |=
            static_cast<data_t>(1 << ((bit_pos + b) & 7));
      }
    }
    bit_pos += bits;
  }
}

uint64_t UnpackBits(const_data_ptr_t data, idx_t index, idx_t bits) {
  uint64_t value = 0;
  idx_t bit_pos = index * bits;
  for (idx_t b = 0; b < bits; b++) {
    idx_t pos = bit_pos + b;
    if ((data[pos >> 3] >> (pos & 7)) & 1) {
      value |= uint64_t(1) << b;
    }
  }
  return value;
}

struct RleRun {
  int64_t value;
  uint32_t length;
};

std::vector<RleRun> BuildRuns(const std::vector<int64_t> &values) {
  std::vector<RleRun> runs;
  for (int64_t v : values) {
    if (!runs.empty() && runs.back().value == v &&
        runs.back().length < ~uint32_t(0)) {
      runs.back().length++;
    } else {
      runs.push_back(RleRun{v, 1});
    }
  }
  return runs;
}

}  // namespace

const char *CodecName(Codec codec) {
  switch (codec) {
    case Codec::kPlain:
      return "PLAIN";
    case Codec::kForBitpack:
      return "FOR_BITPACK";
    case Codec::kRle:
      return "RLE";
    case Codec::kStringPlain:
      return "STRING_PLAIN";
  }
  return "UNKNOWN";
}

Status CompressSegment(const Vector &input, idx_t count,
                       std::vector<data_t> &out) {
  SSAGG_ASSERT(count > 0);
  const idx_t width = input.width();
  // Header: codec placeholder, count, validity bits.
  idx_t codec_pos = out.size();
  out.push_back(static_cast<data_t>(Codec::kPlain));
  AppendValue<uint32_t>(out, static_cast<uint32_t>(count));
  idx_t validity_pos = out.size();
  out.resize(out.size() + (count + 7) / 8, 0);
  for (idx_t i = 0; i < count; i++) {
    if (input.validity().RowIsValid(i)) {
      out[validity_pos + (i >> 3)] |= static_cast<data_t>(1 << (i & 7));
    }
  }

  if (input.type() == LogicalTypeId::kVarchar) {
    out[codec_pos] = static_cast<data_t>(Codec::kStringPlain);
    // offsets (count + 1) then chars.
    uint32_t total = 0;
    idx_t offsets_pos = out.size();
    out.resize(out.size() + 4 * (count + 1));
    std::vector<data_t> chars;
    for (idx_t i = 0; i < count; i++) {
      std::memcpy(out.data() + offsets_pos + 4 * i, &total, 4);
      if (input.validity().RowIsValid(i)) {
        string_t s = input.Values<string_t>()[i];
        AppendBytes(chars, s.data(), s.size());
        total += s.size();
      }
    }
    std::memcpy(out.data() + offsets_pos + 4 * count, &total, 4);
    AppendBytes(out, chars.data(), chars.size());
    return Status::OK();
  }

  if (input.type() == LogicalTypeId::kDouble ||
      input.type() == LogicalTypeId::kBoolean) {
    // Plain storage for doubles/booleans.
    AppendBytes(out, input.data(), count * width);
    return Status::OK();
  }

  // Integers: pick the smallest of plain / FoR-bitpack / RLE.
  std::vector<int64_t> values;
  LoadIntegers(input, count, width, values);
  int64_t min_v = values[0], max_v = values[0];
  for (int64_t v : values) {
    min_v = std::min(min_v, v);
    max_v = std::max(max_v, v);
  }
  // Unsigned subtraction: the frame may span the whole int64 range, where
  // max_v - min_v overflows as a signed operation.
  idx_t bits = BitsNeeded(static_cast<uint64_t>(max_v) -
                          static_cast<uint64_t>(min_v));
  idx_t bitpack_bytes = 9 + (count * bits + 7) / 8;
  auto runs = BuildRuns(values);
  idx_t rle_bytes = 4 + runs.size() * (width + 4);
  idx_t plain_bytes = count * width;

  if (rle_bytes < bitpack_bytes && rle_bytes < plain_bytes) {
    out[codec_pos] = static_cast<data_t>(Codec::kRle);
    AppendValue<uint32_t>(out, static_cast<uint32_t>(runs.size()));
    for (const auto &run : runs) {
      if (width == 4) {
        AppendValue<int32_t>(out, static_cast<int32_t>(run.value));
      } else {
        AppendValue<int64_t>(out, run.value);
      }
      AppendValue<uint32_t>(out, run.length);
    }
    return Status::OK();
  }
  if (bitpack_bytes < plain_bytes) {
    out[codec_pos] = static_cast<data_t>(Codec::kForBitpack);
    AppendValue<int64_t>(out, min_v);
    out.push_back(static_cast<data_t>(bits));
    std::vector<uint64_t> deltas(count);
    for (idx_t i = 0; i < count; i++) {
      deltas[i] =
          static_cast<uint64_t>(values[i]) - static_cast<uint64_t>(min_v);
    }
    PackBits(deltas, bits, out);
    return Status::OK();
  }
  out[codec_pos] = static_cast<data_t>(Codec::kPlain);
  AppendBytes(out, input.data(), count * width);
  return Status::OK();
}

Status DecompressSegment(const_data_ptr_t data, idx_t size,
                         LogicalTypeId type, DecodedSegment &out) {
  const_data_ptr_t cursor = data;
  const_data_ptr_t end = data + size;
  if (size < 5) {
    return Status::IOError("segment too small");
  }
  auto codec = static_cast<Codec>(ReadValue<uint8_t>(cursor));
  auto count = ReadValue<uint32_t>(cursor);
  idx_t validity_bytes = (count + 7) / 8;
  if (cursor + validity_bytes > end) {
    return Status::IOError("segment validity out of bounds");
  }
  out.type = type;
  out.count = count;
  out.validity.assign(cursor, cursor + validity_bytes);
  cursor += validity_bytes;
  idx_t width = TypeWidth(type);
  out.values.resize(count * width);
  out.heap.Reset();

  switch (codec) {
    case Codec::kPlain: {
      if (cursor + count * width > end) {
        return Status::IOError("plain payload out of bounds");
      }
      if (count != 0) {  // a zero-count segment has a null values buffer
        std::memcpy(out.values.data(), cursor, count * width);
      }
      return Status::OK();
    }
    case Codec::kForBitpack: {
      auto min_v = ReadValue<int64_t>(cursor);
      auto bits = ReadValue<uint8_t>(cursor);
      if (cursor + (count * bits + 7) / 8 > end) {
        return Status::IOError("bitpack payload out of bounds");
      }
      for (idx_t i = 0; i < count; i++) {
        int64_t v = static_cast<int64_t>(static_cast<uint64_t>(min_v) +
                                         UnpackBits(cursor, i, bits));
        if (width == 4) {
          auto v32 = static_cast<int32_t>(v);
          std::memcpy(out.values.data() + i * 4, &v32, 4);
        } else {
          std::memcpy(out.values.data() + i * 8, &v, 8);
        }
      }
      return Status::OK();
    }
    case Codec::kRle: {
      auto nruns = ReadValue<uint32_t>(cursor);
      idx_t i = 0;
      for (uint32_t r = 0; r < nruns; r++) {
        if (cursor + width + 4 > end) {
          return Status::IOError("rle payload out of bounds");
        }
        int64_t value;
        if (width == 4) {
          value = ReadValue<int32_t>(cursor);
        } else {
          value = ReadValue<int64_t>(cursor);
        }
        auto run = ReadValue<uint32_t>(cursor);
        for (uint32_t j = 0; j < run && i < count; j++, i++) {
          if (width == 4) {
            auto v32 = static_cast<int32_t>(value);
            std::memcpy(out.values.data() + i * 4, &v32, 4);
          } else {
            std::memcpy(out.values.data() + i * 8, &value, 8);
          }
        }
      }
      if (i != count) {
        return Status::IOError("rle run count mismatch");
      }
      return Status::OK();
    }
    case Codec::kStringPlain: {
      if (cursor + 4 * (count + 1) > end) {
        return Status::IOError("string offsets out of bounds");
      }
      const_data_ptr_t offsets = cursor;
      cursor += 4 * (count + 1);
      uint32_t total;
      std::memcpy(&total, offsets + 4 * count, 4);
      if (cursor + total > end) {
        return Status::IOError("string chars out of bounds");
      }
      auto *strings = reinterpret_cast<string_t *>(out.values.data());
      for (idx_t i = 0; i < count; i++) {
        uint32_t begin, finish;
        std::memcpy(&begin, offsets + 4 * i, 4);
        std::memcpy(&finish, offsets + 4 * (i + 1), 4);
        strings[i] = out.heap.Add(
            std::string_view(reinterpret_cast<const char *>(cursor) + begin,
                             finish - begin));
      }
      return Status::OK();
    }
  }
  return Status::IOError("unknown codec");
}

void CopyDecodedRows(const DecodedSegment &segment, idx_t offset, idx_t count,
                     Vector &out) {
  idx_t width = TypeWidth(segment.type);
  if (segment.type == LogicalTypeId::kVarchar) {
    const auto *strings =
        reinterpret_cast<const string_t *>(segment.values.data());
    for (idx_t i = 0; i < count; i++) {
      if (!segment.RowIsValid(offset + i)) {
        out.validity().SetInvalid(i);
        out.Values<string_t>()[i] = string_t();
        continue;
      }
      out.SetString(i, strings[offset + i].View());
    }
    return;
  }
  if (count == 0) {
    return;
  }
  std::memcpy(out.data(), segment.values.data() + offset * width,
              count * width);
  for (idx_t i = 0; i < count; i++) {
    if (!segment.RowIsValid(offset + i)) {
      out.validity().SetInvalid(i);
    }
  }
}

}  // namespace ssagg
