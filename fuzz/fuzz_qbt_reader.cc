// Fuzz harness for the QBT reader and its crash recovery: the input bytes
// are written to a scratch file and opened through QbtFileSource (header,
// attribute metadata, and block-index validation), then every block is read
// (CRC validation + column decode). When the open fails, RecoverQbt runs on
// the same file (the torn-append tail scan `qarm append` and `mine --append`
// run on untrusted files). Properties: a truncated, bit-flipped, or wholly
// synthetic file never crashes, aborts, or triggers an absurd allocation —
// every defect surfaces as an IOError/InvalidArgument Status — and a file
// that recovery reports OK then opens, after which its blocks are read like
// any opened file's.
#include <unistd.h>

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "storage/qbt_writer.h"
#include "storage/record_source.h"

namespace {

// One scratch path per process: libFuzzer iterations are sequential, and
// replay runs use distinct processes.
std::string ScratchPath() {
  const char* dir = ::getenv("TMPDIR");
  return std::string(dir != nullptr ? dir : "/tmp") + "/qarm_fuzz_qbt_" +
         std::to_string(::getpid()) + ".qbt";
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  static const std::string path = ScratchPath();
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return 0;
  if (size > 0 && std::fwrite(data, 1, size, f) != size) {
    std::fclose(f);
    return 0;
  }
  std::fclose(f);

  auto source = qarm::QbtFileSource::Open(path);
  if (!source.ok()) {
    if (!qarm::RecoverQbt(path).ok()) return 0;
    source = qarm::QbtFileSource::Open(path);
    if (!source.ok()) std::abort();  // recovery left a file Open rejects
  }

  qarm::BlockView view;
  for (size_t b = 0; b < (*source)->num_blocks(); ++b) {
    if (!(*source)->ReadBlock(b, &view).ok()) break;
    // Touch every cell so ASan sees any slice that escapes the mapping.
    uint64_t checksum = 0;
    for (size_t r = 0; r < view.num_rows(); ++r) {
      for (size_t a = 0; a < (*source)->num_attributes(); ++a) {
        checksum += static_cast<uint32_t>(view.value(r, a));
      }
    }
    (void)checksum;
  }
  return 0;
}
