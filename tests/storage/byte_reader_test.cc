// Contract of ByteReader (storage/qbt_format.h), the one bounds-checked
// decoder under every QBT/QRS/QCP file and every distributed wire frame.
// The format tests only reach it through whole files; this table pins the
// edges directly: the division-form count check at the overflow boundary,
// reads past the end (which must not consume anything), trailing bytes,
// and errors that carry the decoder's own code and noun.
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "storage/qbt_format.h"

namespace qarm {
namespace {

struct ReaderCase {
  const char* name;
  size_t size;  // bytes of payload (all 0x01)
  std::function<Status(ByteReader&)> op;
  const char* error;  // nullptr: must succeed; else a message substring
  size_t pos_after;   // where the reader must stand afterwards
};

TEST(ByteReaderTest, ContractTable) {
  // count * 8 wraps to 0 here, so a multiply-form check would accept it.
  const uint64_t wrapping = SIZE_MAX / 8 + 1;
  const std::vector<ReaderCase> cases = {
      {"count filling the payload exactly", 16,
       [](ByteReader& in) { return in.NeedCount(2, 8); }, nullptr, 0},
      {"count one past the payload", 16,
       [](ByteReader& in) { return in.NeedCount(3, 8); },
       "declares 3 elements of 8 bytes, but only 16 bytes remain", 0},
      {"count at the overflow boundary", 16,
       [&](ByteReader& in) { return in.NeedCount(wrapping, 8); },
       "only 16 bytes remain", 0},
      {"array at the overflow boundary never allocates", 16,
       [&](ByteReader& in) {
         std::vector<uint64_t> out;
         return in.ReadU64Array(wrapping, &out);
       },
       "only 16 bytes remain", 0},
      {"take exactly the rest", 4,
       [](ByteReader& in) {
         const uint8_t* p = nullptr;
         return in.Take(4, &p);
       },
       nullptr, 4},
      {"take past the end consumes nothing", 4,
       [](ByteReader& in) {
         uint8_t b = 0;
         QARM_RETURN_NOT_OK(in.ReadByte(&b));
         const uint8_t* p = nullptr;
         return in.Take(4, &p);
       },
       "truncated: 4 bytes needed, 3 remain (at byte 1)", 1},
      {"read bytes past the end", 4,
       [](ByteReader& in) {
         std::string out;
         return in.ReadBytes(5, &out);
       },
       "truncated: 5 bytes needed, 4 remain (at byte 0)", 0},
      {"read bytes of a hostile length never allocates", 4,
       [](ByteReader& in) {
         std::string out;
         return in.ReadBytes(UINT64_MAX, &out);
       },
       "truncated", 0},
      {"fixed-width read past the end", 7,
       [](ByteReader& in) {
         uint64_t v = 0;
         return in.ReadU64(&v);
       },
       "truncated: 8 bytes needed, 7 remain", 0},
      {"fully consumed payload ends cleanly", 8,
       [](ByteReader& in) {
         double v = 0;
         QARM_RETURN_NOT_OK(in.ReadF64(&v));
         return in.ExpectEnd();
       },
       nullptr, 8},
      {"trailing bytes", 4,
       [](ByteReader& in) {
         uint8_t b = 0;
         QARM_RETURN_NOT_OK(in.ReadByte(&b));
         return in.ExpectEnd();
       },
       "has 3 trailing bytes (at byte 1)", 1},
  };

  // Every decoder keeps its own code; the noun leads every message.
  const struct {
    StatusCode code;
    const char* noun;
  } decoders[] = {{StatusCode::kIOError, "message payload"},
                  {StatusCode::kInvalidArgument, "rule-set payload"}};
  for (const auto& decoder : decoders) {
    for (const ReaderCase& c : cases) {
      SCOPED_TRACE(std::string(decoder.noun) + ": " + c.name);
      const std::vector<uint8_t> bytes(c.size, 0x01);
      ByteReader in(bytes.data(), bytes.size(), decoder.code, decoder.noun);
      const Status status = c.op(in);
      EXPECT_EQ(in.pos(), c.pos_after);
      if (c.error == nullptr) {
        EXPECT_TRUE(status.ok()) << status.ToString();
        continue;
      }
      ASSERT_FALSE(status.ok());
      EXPECT_EQ(status.code(), decoder.code);
      EXPECT_EQ(status.message().rfind(decoder.noun, 0), 0u)
          << status.message();
      EXPECT_NE(status.message().find(c.error), std::string::npos)
          << status.message();
    }
  }
}

}  // namespace
}  // namespace qarm
