#include "dist/framing.h"

#include <cstring>

#include "common/string_util.h"
#include "storage/crc32.h"
#include "storage/qbt_format.h"

namespace qarm {
namespace {

// Reads exactly `size` bytes, looping over the transport's partial reads.
// EOF partway through is an error: the peer died mid-frame.
Status ReadFull(Transport& transport, void* data, size_t size) {
  char* p = static_cast<char*>(data);
  size_t remaining = size;
  while (remaining > 0) {
    size_t n = 0;
    QARM_RETURN_NOT_OK(transport.Read(p, remaining, &n));
    if (n == 0) {
      return Status::IOError("peer closed the channel (EOF)");
    }
    p += n;
    remaining -= n;
  }
  return Status::OK();
}

}  // namespace

Status SendFrame(Transport& transport, uint32_t type,
                 const std::string& payload, uint64_t* bytes_sent) {
  // One buffer, one write: the frame either lands whole or the transport
  // reports the failure for this frame — and the injected partial-write
  // fault can tear it mid-frame the way a real crash would.
  std::string frame;
  frame.reserve(kDistFrameHeaderSize + payload.size() + 4);
  frame.append(kDistFrameMagic, 4);
  QbtAppendU32(&frame, type);
  QbtAppendU64(&frame, payload.size());
  frame.append(payload);
  QbtAppendU32(&frame, Crc32(payload.data(), payload.size()));
  QARM_RETURN_NOT_OK(transport.Write(frame.data(), frame.size()));
  if (bytes_sent != nullptr) {
    *bytes_sent += frame.size();
  }
  return Status::OK();
}

Result<DistFrame> RecvFrame(Transport& transport, uint64_t* bytes_received) {
  uint8_t header[kDistFrameHeaderSize];
  QARM_RETURN_NOT_OK(ReadFull(transport, header, sizeof(header)));
  ByteReader in(header, sizeof(header), StatusCode::kIOError, "frame header");
  const uint8_t* magic = nullptr;
  QARM_RETURN_NOT_OK(in.Take(sizeof(kDistFrameMagic), &magic));
  if (std::memcmp(magic, kDistFrameMagic, sizeof(kDistFrameMagic)) != 0) {
    return Status::IOError("bad frame magic");
  }
  DistFrame frame;
  uint64_t payload_size = 0;
  QARM_RETURN_NOT_OK(in.ReadU32(&frame.type));
  QARM_RETURN_NOT_OK(in.ReadU64(&payload_size));
  if (payload_size > kDistMaxPayload) {
    return Status::IOError(
        StrFormat("frame payload size %llu exceeds limit",
                  static_cast<unsigned long long>(payload_size)));
  }
  frame.payload.resize(payload_size);
  if (payload_size > 0) {
    QARM_RETURN_NOT_OK(
        ReadFull(transport, frame.payload.data(), payload_size));
  }
  uint8_t crc_bytes[4];
  QARM_RETURN_NOT_OK(ReadFull(transport, crc_bytes, sizeof(crc_bytes)));
  const uint32_t expected = QbtReadU32(crc_bytes);
  const uint32_t actual = Crc32(frame.payload.data(), frame.payload.size());
  if (expected != actual) {
    return Status::IOError(StrFormat(
        "frame payload CRC mismatch (stored %08x, computed %08x)", expected,
        actual));
  }
  if (bytes_received != nullptr) {
    *bytes_received += kDistFrameHeaderSize + payload_size + 4;
  }
  return frame;
}

}  // namespace qarm
