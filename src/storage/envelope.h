// The sealed-payload envelope: the one container layout shared by the QRS
// rule-set format (rules_format.h) and the QCP checkpoint format
// (checkpoint_format.h). One function writes it and one parses it.
//
// Layout (all integers little-endian via the QBT helpers):
//
//   Prefix (24 bytes)
//     [0]  u8[4]  magic
//     [4]  u32    endian marker 0x0A0B0C0D (shared with QBT)
//     [8]  u32    format version
//     [12] u32    header word (QRS: num_attributes; QCP: reserved 0)
//     [16] u64    payload_size
//   Header extension (fixed size per format; QRS: u64 num_records at
//                     [24], QCP: none)
//   Payload (payload_size bytes)
//   Tail (8 bytes)
//     u32    CRC-32 of the payload bytes
//     u8[4]  end magic
//
// The parser checks the magic, endianness, version range, that the
// declared payload size matches the buffer exactly, the end magic and the
// payload CRC, in that order. Structural errors are InvalidArgument (a
// corrupt file the caller must not trust); only a checksum mismatch is an
// IOError.
#ifndef QARM_STORAGE_ENVELOPE_H_
#define QARM_STORAGE_ENVELOPE_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/status.h"

namespace qarm {

inline constexpr size_t kEnvelopePrefixSize = 4 + 4 + 4 + 4 + 8;
inline constexpr size_t kEnvelopeTailSize = 4 + 4;

// What distinguishes one sealed format from another.
struct EnvelopeFormat {
  const char* magic;      // 4 bytes
  const char* end_magic;  // 4 bytes
  // Accepted versions; the writer stamps max_version.
  uint32_t min_version;
  uint32_t max_version;
  size_t extension_size;  // bytes of the fixed header extension
  const char* noun;       // names the format in errors ("rule set")
};

// A parsed envelope: views into the caller's buffer.
struct Envelope {
  uint32_t version = 0;
  uint32_t header_word = 0;
  const uint8_t* extension = nullptr;  // format.extension_size bytes
  const uint8_t* payload = nullptr;
  size_t payload_size = 0;
};

// Seals `payload` (with `header_word` and the format.extension_size-byte
// `extension`) and writes it atomically to `path` (AtomicWriteFile). The
// file size lands in `*bytes_written` when non-null.
Status WriteEnvelope(const EnvelopeFormat& format, uint32_t header_word,
                     const std::string& extension, const std::string& payload,
                     const std::string& path, uint64_t* bytes_written);

// Validates the envelope of the `size`-byte buffer at `data`.
Result<Envelope> ParseEnvelope(const EnvelopeFormat& format,
                               const uint8_t* data, size_t size);

}  // namespace qarm

#endif  // QARM_STORAGE_ENVELOPE_H_
