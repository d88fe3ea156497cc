#include "storage/qbt_reader.h"

#include <bit>
#include <cstring>
#include <utility>

#include "common/string_util.h"
#include "storage/attr_metadata.h"
#include "storage/crc32.h"
#include "storage/qbt_format.h"

namespace qarm {

Status DecodeQbtHeader(const uint8_t* data, size_t size, QbtLayout* layout) {
  if (size < kQbtHeaderSize + kQbtTailSize) {
    return Status::IOError(StrFormat("file is only %zu bytes", size));
  }
  ByteReader file(data, size, StatusCode::kIOError, "QBT header");
  const uint8_t* magic = nullptr;
  QARM_RETURN_NOT_OK(file.Take(sizeof(kQbtMagic), &magic));
  if (std::memcmp(magic, kQbtMagic, sizeof(kQbtMagic)) != 0) {
    return Status::IOError("bad magic");
  }
  uint32_t endian = 0, version = 0, num_attrs = 0, reserved = 0;
  uint64_t metadata_size = 0;
  QARM_RETURN_NOT_OK(file.ReadU32(&endian));
  if (endian != kQbtEndianMarker) {
    return Status::IOError(StrFormat("endian marker 0x%08x (file written on "
                                     "a host of different byte order?)",
                                     endian));
  }
  QARM_RETURN_NOT_OK(file.ReadU32(&version));
  if (version != kQbtVersion) {
    return Status::IOError(StrFormat(
        "unsupported version %u (reader supports %u)", version, kQbtVersion));
  }
  QARM_RETURN_NOT_OK(file.ReadU32(&layout->rows_per_block));
  QARM_RETURN_NOT_OK(file.ReadU64(&layout->num_rows));
  QARM_RETURN_NOT_OK(file.ReadU32(&num_attrs));
  QARM_RETURN_NOT_OK(file.ReadU32(&reserved));
  QARM_RETURN_NOT_OK(file.ReadU64(&metadata_size));
  if (layout->rows_per_block == 0) {
    return Status::IOError("rows_per_block is 0");
  }
  if (metadata_size > file.remaining() - kQbtTailSize) {
    return Status::IOError("metadata section exceeds the file");
  }
  const uint8_t* metadata = nullptr;
  QARM_RETURN_NOT_OK(file.Take(metadata_size, &metadata));
  size_t consumed = 0;
  Result<std::vector<MappedAttribute>> attrs = DecodeAttributeMetadata(
      metadata, static_cast<size_t>(metadata_size), num_attrs, &consumed);
  if (!attrs.ok()) return Status::IOError(attrs.status().message());
  // The writer pads the section to 4 bytes (block alignment); anything
  // beyond that is corruption.
  if (metadata_size - consumed >= sizeof(int32_t)) {
    return Status::IOError("metadata section has trailing bytes");
  }
  layout->attributes = std::move(attrs).value();
  layout->data_begin = file.pos();
  return Status::OK();
}

Status DecodeQbtIndex(const uint8_t* data, size_t size, QbtLayout* layout) {
  const uint64_t data_begin = layout->data_begin;
  if (size < data_begin + kQbtTailSize) {
    return Status::IOError(StrFormat("file is only %zu bytes", size));
  }
  // [header + metadata | blocks + footer | tail]
  ByteReader file(data, size, StatusCode::kIOError, "QBT file");
  const uint8_t* prefix = nullptr;  // decoded by DecodeQbtHeader
  const uint8_t* body = nullptr;
  const uint8_t* tail = nullptr;
  QARM_RETURN_NOT_OK(file.Take(data_begin, &prefix));
  const size_t body_size = file.remaining() - kQbtTailSize;
  QARM_RETURN_NOT_OK(file.Take(body_size, &body));
  QARM_RETURN_NOT_OK(file.Take(kQbtTailSize, &tail));
  if (std::memcmp(tail + 12, kQbtEndMagic, sizeof(kQbtEndMagic)) != 0) {
    return Status::IOError("bad end magic (truncated file?)");
  }
  const uint64_t footer_offset = QbtReadU64(tail);
  const uint32_t footer_crc = QbtReadU32(tail + 8);
  // The block count comes from the index itself, not from the header row
  // count: appends start a fresh block, so short blocks can sit anywhere in
  // the file and ceil(num_rows / rows_per_block) no longer bounds anything.
  // The per-block row sum below still has to reconcile with the header.
  if (footer_offset < data_begin || footer_offset - data_begin > body_size) {
    return Status::IOError("block index offset out of bounds");
  }
  ByteReader blocks_and_footer(body, body_size, StatusCode::kIOError,
                               "QBT data region");
  const uint8_t* blocks = nullptr;
  const uint8_t* footer = nullptr;
  QARM_RETURN_NOT_OK(blocks_and_footer.Take(footer_offset - data_begin,
                                            &blocks));
  const size_t footer_size = blocks_and_footer.remaining();
  if (footer_size % kQbtBlockIndexEntrySize != 0) {
    return Status::IOError("block index does not match the row count");
  }
  QARM_RETURN_NOT_OK(blocks_and_footer.Take(footer_size, &footer));
  if (Crc32(footer, footer_size) != footer_crc) {
    return Status::IOError("block index checksum mismatch");
  }

  ByteReader index(footer, footer_size, StatusCode::kIOError,
                   "QBT block index");
  const size_t num_attrs = layout->attributes.size();
  layout->blocks.resize(footer_size / kQbtBlockIndexEntrySize);
  layout->row_begins.resize(layout->blocks.size());
  uint64_t rows = 0;
  for (size_t b = 0; b < layout->blocks.size(); ++b) {
    const uint8_t* entry = nullptr;
    QARM_RETURN_NOT_OK(index.Take(kQbtBlockIndexEntrySize, &entry));
    QbtBlockEntry& block = layout->blocks[b];
    block.offset = QbtReadU64(entry);
    block.num_rows = QbtReadU32(entry + 8);
    block.crc32 = QbtReadU32(entry + 12);
    // The size check divides instead of multiplying out block_bytes so an
    // attacker-chosen row count cannot overflow the comparison.
    if (block.num_rows == 0 || block.num_rows > layout->rows_per_block ||
        block.offset % sizeof(int32_t) != 0 || block.offset < data_begin ||
        block.offset > footer_offset ||
        (num_attrs != 0 &&
         (footer_offset - block.offset) / sizeof(int32_t) / num_attrs <
             block.num_rows)) {
      return Status::IOError(
          StrFormat("block %zu index entry out of bounds", b));
    }
    layout->row_begins[b] = rows;
    rows += block.num_rows;
  }
  if (rows != layout->num_rows) {
    return Status::IOError(StrFormat(
        "block rows sum to %llu, header says %llu",
        static_cast<unsigned long long>(rows),
        static_cast<unsigned long long>(layout->num_rows)));
  }
  return Status::OK();
}

Result<std::unique_ptr<QbtReader>> QbtReader::Open(const std::string& path) {
  if constexpr (std::endian::native != std::endian::little) {
    return Status::Internal("QBT reading requires a little-endian host");
  }
  QARM_ASSIGN_OR_RETURN(std::unique_ptr<MmapFile> file, MmapFile::Open(path));
  auto reader = std::unique_ptr<QbtReader>(new QbtReader());
  Status decoded =
      DecodeQbtHeader(file->data(), file->size(), &reader->layout_);
  if (decoded.ok()) {
    decoded = DecodeQbtIndex(file->data(), file->size(), &reader->layout_);
  }
  if (!decoded.ok()) {
    return Status::IOError("'" + path + "' is not a valid QBT file: " +
                           decoded.message());
  }
  reader->file_ = std::move(file);
  return reader;
}

std::string QbtReader::EncodeIndexPrefix(size_t num_blocks) const {
  QARM_CHECK_LE(num_blocks, layout_.blocks.size());
  std::string encoded;
  encoded.reserve(num_blocks * kQbtBlockIndexEntrySize);
  for (size_t b = 0; b < num_blocks; ++b) {
    QbtAppendBlockEntry(&encoded, layout_.blocks[b]);
  }
  return encoded;
}

uint32_t QbtReader::IndexPrefixCrc(size_t num_blocks) const {
  const std::string encoded = EncodeIndexPrefix(num_blocks);
  return Crc32(encoded.data(), encoded.size());
}

Status QbtReader::ReadBlockColumns(
    size_t b, std::vector<const int32_t*>* columns) const {
  QARM_CHECK_LT(b, layout_.blocks.size());
  const QbtBlockEntry& block = layout_.blocks[b];
  const uint8_t* bytes = file_->data() + block.offset;
  const size_t block_bytes = static_cast<size_t>(this->block_bytes(b));
  const uint32_t crc = Crc32(bytes, block_bytes);
  if (crc != block.crc32) {
    return Status::IOError(
        StrFormat("QBT block %zu checksum mismatch (stored 0x%08x, computed "
                  "0x%08x): file corrupted",
                  b, block.crc32, crc));
  }
  columns->resize(layout_.attributes.size());
  for (size_t a = 0; a < layout_.attributes.size(); ++a) {
    (*columns)[a] = reinterpret_cast<const int32_t*>(
        bytes + a * static_cast<size_t>(block.num_rows) * sizeof(int32_t));
  }
  return Status::OK();
}

}  // namespace qarm
