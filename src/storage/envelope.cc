#include "storage/envelope.h"

#include <cstring>

#include "common/macros.h"
#include "common/string_util.h"
#include "storage/crc32.h"
#include "storage/mmap_file.h"
#include "storage/qbt_format.h"

namespace qarm {

Status WriteEnvelope(const EnvelopeFormat& format, uint32_t header_word,
                     const std::string& extension, const std::string& payload,
                     const std::string& path, uint64_t* bytes_written) {
  QARM_CHECK_EQ(extension.size(), format.extension_size);
  std::string bytes;
  bytes.reserve(kEnvelopePrefixSize + extension.size() + payload.size() +
                kEnvelopeTailSize);
  bytes.append(format.magic, 4);
  QbtAppendU32(&bytes, kQbtEndianMarker);
  QbtAppendU32(&bytes, format.max_version);
  QbtAppendU32(&bytes, header_word);
  QbtAppendU64(&bytes, payload.size());
  bytes.append(extension);
  bytes.append(payload);
  QbtAppendU32(&bytes, Crc32(payload.data(), payload.size()));
  bytes.append(format.end_magic, 4);

  // A crash mid-write leaves any previous file valid.
  QARM_RETURN_NOT_OK(AtomicWriteFile(path, bytes));
  if (bytes_written != nullptr) *bytes_written = bytes.size();
  return Status::OK();
}

Result<Envelope> ParseEnvelope(const EnvelopeFormat& format,
                               const uint8_t* data, size_t size) {
  ByteReader in(data, size, StatusCode::kInvalidArgument, format.noun);
  const uint8_t* magic = nullptr;
  QARM_RETURN_NOT_OK(in.Take(4, &magic));
  if (std::memcmp(magic, format.magic, 4) != 0) {
    return Status::InvalidArgument(
        StrFormat("not a %.4s %s (bad magic)", format.magic, format.noun));
  }
  uint32_t endian = 0;
  QARM_RETURN_NOT_OK(in.ReadU32(&endian));
  if (endian != kQbtEndianMarker) {
    return Status::InvalidArgument(StrFormat(
        "%s endianness does not match this host", format.noun));
  }
  Envelope env;
  QARM_RETURN_NOT_OK(in.ReadU32(&env.version));
  if (env.version < format.min_version || env.version > format.max_version) {
    return Status::InvalidArgument(StrFormat(
        "unsupported %s version %u (reader supports %u through %u)",
        format.noun, env.version, format.min_version, format.max_version));
  }
  uint64_t payload_size = 0;
  QARM_RETURN_NOT_OK(in.ReadU32(&env.header_word));
  QARM_RETURN_NOT_OK(in.ReadU64(&payload_size));
  QARM_RETURN_NOT_OK(in.Take(format.extension_size, &env.extension));
  if (in.remaining() < kEnvelopeTailSize ||
      payload_size != in.remaining() - kEnvelopeTailSize) {
    return Status::InvalidArgument(StrFormat(
        "%s payload size %llu does not match file size %zu", format.noun,
        static_cast<unsigned long long>(payload_size), size));
  }
  env.payload_size = static_cast<size_t>(payload_size);
  QARM_RETURN_NOT_OK(in.Take(payload_size, &env.payload));
  const uint8_t* tail = nullptr;
  QARM_RETURN_NOT_OK(in.Take(kEnvelopeTailSize, &tail));
  if (std::memcmp(tail + 4, format.end_magic, 4) != 0) {
    return Status::InvalidArgument(
        StrFormat("%s end magic missing", format.noun));
  }
  const uint32_t expected_crc = QbtReadU32(tail);
  const uint32_t actual_crc = Crc32(env.payload, env.payload_size);
  if (expected_crc != actual_crc) {
    return Status::IOError(StrFormat(
        "%s payload checksum mismatch (stored %08x, computed %08x)",
        format.noun, expected_crc, actual_crc));
  }
  return env;
}

}  // namespace qarm
