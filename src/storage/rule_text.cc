#include "storage/rule_text.h"

#include <charconv>
#include <utility>

#include "common/hash.h"
#include "common/macros.h"

namespace qarm {
namespace {

// Write buffer of a FILE sink.
constexpr size_t kFileBufferBytes = 64 * 1024;

ItemText RenderItem(const MappedAttribute& attr, int32_t lo, int32_t hi) {
  const std::string range = attr.DecodeRange(lo, hi);
  const bool quantitative = attr.kind == AttributeKind::kQuantitative;
  ItemText item;
  item.text = "<" + attr.name + ": " + range + ">";
  item.needs_csv_quotes = item.text.find_first_of(",\"\n") != std::string::npos;
  RuleSink json;
  json.Append("{\"attribute\":");
  json.AppendJsonString(attr.name);
  if (quantitative) {
    const Interval raw = attr.RawInterval(lo, hi);
    json.Append(",\"kind\":\"quantitative\",\"lo\":");
    json.AppendDouble(raw.lo);
    json.Append(",\"hi\":");
    json.AppendDouble(raw.hi);
  } else {
    json.Append(",\"kind\":\"categorical\",\"value\":");
    json.AppendJsonString(range);
  }
  json.Append(",\"display\":");
  json.AppendJsonString(range);
  json.Append('}');
  item.json = json.TakeString();
  item.dump = attr.name + (quantitative ? "[" + range + "]" : "=" + range);
  return item;
}

}  // namespace

std::string JsonEscape(std::string_view s) {
  RuleSink sink;
  sink.AppendJsonString(s);
  return sink.TakeString();
}

size_t ItemTextTable::KeyHash::operator()(const Key& key) const {
  return static_cast<size_t>(SplitMix64(
      (static_cast<uint64_t>(static_cast<uint32_t>(key.lo)) << 32 |
       static_cast<uint32_t>(key.hi)) ^
      SplitMix64(static_cast<uint32_t>(key.attr))));
}

void ItemTextTable::AddKey(const Key& key) {
  if (items_.find(key) != items_.end()) return;
  QARM_CHECK(key.attr >= 0 &&
             static_cast<size_t>(key.attr) < attributes_->size());
  items_.emplace(key, RenderItem((*attributes_)[static_cast<size_t>(key.attr)],
                                 key.lo, key.hi));
}

const ItemText& ItemTextTable::FindKey(const Key& key) const {
  const auto it = items_.find(key);
  QARM_CHECK(it != items_.end());
  return it->second;
}

RuleSink::RuleSink(std::FILE* file)
    : file_(file), buffer_(kFileBufferBytes, '\0') {}

RuleSink::~RuleSink() { Flush(); }

void RuleSink::Reserve(size_t n) {
  if (file_ == nullptr) {
    // Grows the capacity geometrically but zero-fills only the `n` bytes
    // about to be written, so no untouched slack becomes resident.
    buffer_.resize(used_ + n);
    return;
  }
  if (used_ > 0) {
    ok_ = ok_ && std::fwrite(buffer_.data(), 1, used_, file_) == used_;
    flushed_ += used_;
    used_ = 0;
  }
  // One fragment larger than the whole buffer: grow it to fit.
  if (n > buffer_.size()) buffer_.resize(n);
}

void RuleSink::AppendUint(uint64_t value) {
  constexpr size_t kMaxDigits = 20;
  if (buffer_.size() - used_ < kMaxDigits) Reserve(kMaxDigits);
  char* begin = buffer_.data() + used_;
  used_ += static_cast<size_t>(
      std::to_chars(begin, begin + kMaxDigits, value).ptr - begin);
}

void RuleSink::AppendNumber(double value, int precision, bool trim_zeros) {
  if (buffer_.size() - used_ < kMaxFixedChars) Reserve(kMaxFixedChars);
  char* begin = buffer_.data() + used_;
  used_ += static_cast<size_t>(
      FormatFixed(begin, value, precision, trim_zeros) - begin);
}

void RuleSink::AppendJsonString(std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  Append('"');
  for (char c : s) {
    switch (c) {
      case '"':
        Append("\\\"");
        break;
      case '\\':
        Append("\\\\");
        break;
      case '\n':
        Append("\\n");
        break;
      case '\r':
        Append("\\r");
        break;
      case '\t':
        Append("\\t");
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          const char escape[] = {'\\', 'u', '0', '0', kHex[(c >> 4) & 0xf],
                                 kHex[c & 0xf]};
          Append(std::string_view(escape, sizeof(escape)));
        } else {
          Append(c);
        }
    }
  }
  Append('"');
}

bool RuleSink::Flush() {
  if (file_ == nullptr) return true;
  Reserve(0);
  ok_ = ok_ && std::fflush(file_) == 0;
  return ok_;
}

std::string RuleSink::TakeString() {
  QARM_CHECK(file_ == nullptr);
  buffer_.resize(used_);
  used_ = 0;
  return std::exchange(buffer_, std::string());
}

}  // namespace qarm
