// QBT ("Quantitative Binary Table") — the on-disk columnar format for
// mapped tables, built for streaming block scans of tables larger than RAM.
//
// Layout (version 1, all integers little-endian, no alignment padding
// between sections):
//
//   Header (40 bytes)
//     [0]  u8[4]  magic "QBT1"
//     [4]  u32    endian marker 0x0A0B0C0D (a big-endian writer would store
//                 the reversed bytes; readers reject the mismatch cleanly)
//     [8]  u32    format version (kQbtVersion)
//     [12] u32    rows_per_block (every block holds this many rows except
//                 possibly the last)
//     [16] u64    num_rows
//     [24] u32    num_attributes
//     [28] u32    reserved (0)
//     [32] u64    metadata_size (bytes of the attribute-metadata section)
//
//   Attribute metadata (metadata_size bytes): per attribute, in order —
//     name        u32 length + bytes
//     kind        u8  (AttributeKind)
//     source_type u8  (ValueType)
//     partitioned u8  (0/1)
//     reserved    u8  (0)
//     labels            u32 count + per label (u32 length + bytes)
//     intervals         u32 count + per interval (f64 lo, f64 hi)
//     taxonomy_ranges   u32 count + per node (u32 length + name bytes,
//                                             i32 lo, i32 hi)
//
//   Blocks (ceil(num_rows / rows_per_block) of them, back to back):
//     block b = column 0 slice, column 1 slice, ..., column A-1 slice,
//     where a slice is block_rows(b) i32 mapped values (kMissingValue for
//     NULL cells). Column-major within the block, so a scan touches each
//     column as one contiguous run.
//
//   Footer (block index): per block —
//     u64 file offset of the block
//     u32 block row count
//     u32 CRC-32 of the block's raw bytes
//
//   Tail (16 bytes)
//     u64    file offset of the footer
//     u32    CRC-32 of the footer bytes
//     u8[4]  end magic "QBTE"
//
// The footer-at-the-end layout lets the writer stream blocks without
// knowing the block count up front, and lets the reader locate the index
// from the fixed-size tail.
#ifndef QARM_STORAGE_QBT_FORMAT_H_
#define QARM_STORAGE_QBT_FORMAT_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "common/status.h"
#include "common/string_util.h"

namespace qarm {

inline constexpr char kQbtMagic[4] = {'Q', 'B', 'T', '1'};
inline constexpr char kQbtEndMagic[4] = {'Q', 'B', 'T', 'E'};
inline constexpr uint32_t kQbtEndianMarker = 0x0A0B0C0Du;
inline constexpr uint32_t kQbtVersion = 1;
inline constexpr uint32_t kQbtDefaultRowsPerBlock = 65536;
inline constexpr size_t kQbtHeaderSize = 40;
inline constexpr size_t kQbtBlockIndexEntrySize = 8 + 4 + 4;
inline constexpr size_t kQbtTailSize = 8 + 4 + 4;

// --- Little-endian append/read helpers -------------------------------------
// QBT is defined little-endian; these helpers are byte-order explicit so the
// format does not silently change meaning on a big-endian host (the endian
// marker additionally rejects cross-endian files at open).

inline void QbtAppendU32(std::string* out, uint32_t v) {
  char b[4] = {static_cast<char>(v), static_cast<char>(v >> 8),
               static_cast<char>(v >> 16), static_cast<char>(v >> 24)};
  out->append(b, 4);
}

inline void QbtAppendU64(std::string* out, uint64_t v) {
  QbtAppendU32(out, static_cast<uint32_t>(v));
  QbtAppendU32(out, static_cast<uint32_t>(v >> 32));
}

inline void QbtAppendI32(std::string* out, int32_t v) {
  QbtAppendU32(out, static_cast<uint32_t>(v));
}

inline void QbtAppendF64(std::string* out, double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  QbtAppendU64(out, bits);
}

inline void QbtAppendString(std::string* out, const std::string& s) {
  QbtAppendU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

// One footer entry: where block b starts, its row count, and its CRC-32.
struct QbtBlockEntry {
  uint64_t offset = 0;
  uint32_t num_rows = 0;
  uint32_t crc32 = 0;
};

// The one encoder of a kQbtBlockIndexEntrySize-byte footer entry.
inline void QbtAppendBlockEntry(std::string* out, const QbtBlockEntry& entry) {
  QbtAppendU64(out, entry.offset);
  QbtAppendU32(out, entry.num_rows);
  QbtAppendU32(out, entry.crc32);
}

inline uint32_t QbtReadU32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

inline uint64_t QbtReadU64(const uint8_t* p) {
  return static_cast<uint64_t>(QbtReadU32(p)) |
         static_cast<uint64_t>(QbtReadU32(p + 4)) << 32;
}

inline int32_t QbtReadI32(const uint8_t* p) {
  return static_cast<int32_t>(QbtReadU32(p));
}

inline double QbtReadF64(const uint8_t* p) {
  uint64_t bits = QbtReadU64(p);
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

// --- Bounds-checked reader ---------------------------------------------------
// The decoding half of the helpers above, shared by every binary decoder:
// QBT attribute metadata, QRS rule sets, QCP checkpoints and shard
// snapshots, and the distributed wire messages and handshake. Every read
// checks the remaining size first, and a declared element count is checked
// in division form (count <= remaining / element_size, so the product
// cannot overflow) before the caller allocates. A truncated or hostile
// payload therefore fails cleanly instead of reading out of bounds or
// resizing a vector to the moon. Every error carries the decoder's own
// StatusCode and starts with `noun` (e.g. "rule-set payload"), followed by
// the byte offset where decoding stopped.
class ByteReader {
 public:
  // `noun` must outlive the reader (callers pass string literals).
  ByteReader(const uint8_t* data, size_t size, StatusCode code,
             const char* noun)
      : data_(data), size_(size), code_(code), noun_(noun) {}

  size_t pos() const { return pos_; }
  size_t remaining() const { return size_ - pos_; }

  Status ReadByte(uint8_t* out) {
    const uint8_t* p = nullptr;
    QARM_RETURN_NOT_OK(Take(1, &p));
    *out = *p;
    return Status::OK();
  }
  Status ReadU32(uint32_t* out) { return ReadFixed(QbtReadU32, out); }
  Status ReadI32(int32_t* out) { return ReadFixed(QbtReadI32, out); }
  // Also fills size_t fields (stats counters): on some hosts size_t and
  // uint64_t are distinct types.
  template <typename T>
  Status ReadU64(T* out) {
    static_assert(std::is_same_v<T, uint64_t> || std::is_same_v<T, size_t>);
    uint64_t v = 0;
    QARM_RETURN_NOT_OK(ReadFixed(QbtReadU64, &v));
    *out = static_cast<T>(v);
    return Status::OK();
  }
  Status ReadF64(double* out) { return ReadFixed(QbtReadF64, out); }

  Status ReadI32Array(uint64_t count, std::vector<int32_t>* out) {
    return ReadArray(QbtReadI32, count, out);
  }
  Status ReadU32Array(uint64_t count, std::vector<uint32_t>* out) {
    return ReadArray(QbtReadU32, count, out);
  }
  Status ReadU64Array(uint64_t count, std::vector<uint64_t>* out) {
    return ReadArray(QbtReadU64, count, out);
  }

  // `n` raw bytes into `out`. The caller reads (and caps) its own length
  // prefix; the bound is checked before `out` allocates.
  Status ReadBytes(uint64_t n, std::string* out) {
    const uint8_t* p = nullptr;
    QARM_RETURN_NOT_OK(Take(n, &p));
    out->assign(reinterpret_cast<const char*>(p), static_cast<size_t>(n));
    return Status::OK();
  }

  // Points `*out` at the next `n` bytes and consumes them: one bounds check
  // for a fixed-size record the caller decodes in place.
  Status Take(uint64_t n, const uint8_t** out) {
    if (n > remaining()) {
      return Error(StrFormat("truncated: %llu bytes needed, %zu remain",
                             static_cast<unsigned long long>(n),
                             remaining()));
    }
    *out = data_ + pos_;
    pos_ += static_cast<size_t>(n);
    return Status::OK();
  }

  // Rejects a declared count of `element_size`-byte elements that the
  // remaining bytes cannot possibly hold.
  Status NeedCount(uint64_t count, size_t element_size) const {
    if (count > remaining() / element_size) {
      return Error(StrFormat(
          "declares %llu elements of %zu bytes, but only %zu bytes remain",
          static_cast<unsigned long long>(count), element_size, remaining()));
    }
    return Status::OK();
  }

  // Trailing bytes mean the payload does not match its own declared
  // layout — a codec bug or corruption, never something to ignore.
  Status ExpectEnd() const {
    if (remaining() != 0) {
      return Error(StrFormat("has %zu trailing bytes", remaining()));
    }
    return Status::OK();
  }

 private:
  template <typename T>
  Status ReadFixed(T (*decode)(const uint8_t*), T* out) {
    const uint8_t* p = nullptr;
    QARM_RETURN_NOT_OK(Take(sizeof(T), &p));
    *out = decode(p);
    return Status::OK();
  }

  template <typename T>
  Status ReadArray(T (*decode)(const uint8_t*), uint64_t count,
                   std::vector<T>* out) {
    QARM_RETURN_NOT_OK(NeedCount(count, sizeof(T)));
    out->resize(static_cast<size_t>(count));
    for (T& v : *out) {
      v = decode(data_ + pos_);
      pos_ += sizeof(T);
    }
    return Status::OK();
  }

  Status Error(const std::string& what) const {
    return Status(code_, StrFormat("%s %s (at byte %zu)", noun_, what.c_str(),
                                   pos_));
  }

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
  StatusCode code_;
  const char* noun_;
};

}  // namespace qarm

#endif  // QARM_STORAGE_QBT_FORMAT_H_
