// Mmap-backed QBT reader. Open() maps the file, validates the header,
// attribute metadata, and block index; ReadBlockColumns() validates one
// block's CRC and returns zero-copy column slices into the mapping.
// Resident memory is bounded by the pages of the blocks actually being
// scanned, not by the table size.
#ifndef QARM_STORAGE_QBT_READER_H_
#define QARM_STORAGE_QBT_READER_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "partition/mapped_table.h"
#include "storage/mmap_file.h"
#include "storage/qbt_format.h"

namespace qarm {

// The decoded layout of a QBT file image: the header fields, the attribute
// metadata and the block index (see qbt_format.h). Decoding is split at the
// tail so that recovery can decode the header once and then try each
// candidate end of file against the same index decoder QbtReader::Open runs.
struct QbtLayout {
  uint32_t rows_per_block = 0;
  uint64_t num_rows = 0;
  // File offset of the first block byte: header plus metadata section.
  uint64_t data_begin = 0;
  std::vector<MappedAttribute> attributes;
  std::vector<QbtBlockEntry> blocks;
  std::vector<uint64_t> row_begins;  // first global row of each block
};

// Decodes and validates the header and attribute metadata of the `size`-byte
// file image at `data` into `layout` (all but the index fields). Errors are
// IOError without file context.
Status DecodeQbtHeader(const uint8_t* data, size_t size, QbtLayout* layout);

// Decodes the tail that ends the `size`-byte image at `data` and the block
// index it points at into `layout->blocks` and `row_begins`, validating
// every entry against the header fields DecodeQbtHeader filled in: entries
// inside the data region, block rows summing to the header row count.
// Errors are IOError without file context.
Status DecodeQbtIndex(const uint8_t* data, size_t size, QbtLayout* layout);

class QbtReader {
 public:
  // Maps and validates `path`. Fails with a descriptive Status on a bad
  // magic/version/endianness, a truncated file, or an index that does not
  // match the file size.
  static Result<std::unique_ptr<QbtReader>> Open(const std::string& path);

  const std::vector<MappedAttribute>& attributes() const {
    return layout_.attributes;
  }
  uint64_t num_rows() const { return layout_.num_rows; }
  uint32_t rows_per_block() const { return layout_.rows_per_block; }
  size_t num_blocks() const { return layout_.blocks.size(); }
  size_t block_rows(size_t b) const { return layout_.blocks[b].num_rows; }
  // First global row of block `b`. Appends may leave short blocks in the
  // middle of the file (each append starts a fresh block), so this is a
  // prefix sum over the index, not b * rows_per_block.
  uint64_t block_row_begin(size_t b) const { return layout_.row_begins[b]; }
  // File offset of block `b`'s bytes (exposed for corruption tests and
  // tooling).
  uint64_t block_offset(size_t b) const { return layout_.blocks[b].offset; }
  uint64_t file_size() const { return file_->size(); }

  // The first `num_blocks` index entries as encoded on disk. Append
  // re-encodes the existing entries verbatim into its new footer.
  std::string EncodeIndexPrefix(size_t num_blocks) const;

  // CRC-32 over the first `num_blocks` index entries as encoded on disk.
  // Incremental mining fingerprints the base run's block range with this:
  // an append only adds entries, so the prefix CRC of an untouched base
  // range never changes, while any rewrite of a covered block changes it.
  uint32_t IndexPrefixCrc(size_t num_blocks) const;

  // Validates block `b`'s checksum and fills `columns` (resized to the
  // attribute count) with pointers to its column slices, each
  // block_rows(b) consecutive int32 values inside the mapping. Thread-safe:
  // the mapping is read-only and `columns` is caller-owned.
  Status ReadBlockColumns(size_t b,
                          std::vector<const int32_t*>* columns) const;

  // Bytes of one full block (the last block may be smaller).
  uint64_t block_bytes(size_t b) const {
    return static_cast<uint64_t>(layout_.blocks[b].num_rows) *
           layout_.attributes.size() * sizeof(int32_t);
  }

 private:
  QbtReader() = default;

  std::unique_ptr<MmapFile> file_;
  QbtLayout layout_;
};

}  // namespace qarm

#endif  // QARM_STORAGE_QBT_READER_H_
