// The storage layer's two whole-file primitives.
//
// MmapFile: a read-only memory-mapped file. The QBT reader maps the whole
// file and hands out pointers into the mapping, so a table far larger than
// RAM is paged in block by block by the OS and evicted under memory
// pressure — resident memory is bounded by the blocks actually being
// scanned.
//
// AtomicWriteFile: the one durable-write path for whole files (QRS rule
// sets, QCP checkpoints, the CLI's --port-file).
#ifndef QARM_STORAGE_MMAP_FILE_H_
#define QARM_STORAGE_MMAP_FILE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "common/status.h"

namespace qarm {

class MmapFile {
 public:
  // Maps `path` read-only. An empty file maps to size() == 0 with a null
  // data pointer (valid, just nothing to read).
  static Result<std::unique_ptr<MmapFile>> Open(const std::string& path);

  ~MmapFile();
  MmapFile(const MmapFile&) = delete;
  MmapFile& operator=(const MmapFile&) = delete;

  const uint8_t* data() const { return data_; }
  size_t size() const { return size_; }

  // Hints the kernel that access will be sequential (readahead-friendly);
  // best-effort, ignored on failure.
  void AdviseSequential();

 private:
  MmapFile(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  const uint8_t* data_ = nullptr;
  size_t size_ = 0;
};

// Replaces `path` with `bytes` atomically: writes `path`.tmp, flushes and
// fsyncs it, then renames it over `path`. A crash before the rename leaves
// any previous file intact; a crash after it leaves the new one, never a
// torn mix. On failure the temp file is removed.
Status AtomicWriteFile(const std::string& path, const std::string& bytes);

}  // namespace qarm

#endif  // QARM_STORAGE_MMAP_FILE_H_
