// The one rule renderer. Every text form of a mined rule — the CLI's
// csv/json/text output, `qarm rules dump`, and the serving engine's JSON
// bodies — is assembled from two pieces:
//
//   * ItemTextTable: each distinct item <attribute: lo..hi> rendered once,
//     in every form an output needs, keyed by (attr, lo, hi) over the
//     decode metadata. A rule set has few distinct items (1,236 for 3.5M
//     rules at the ROADMAP workload), so rendering a rule is copying
//     fragments rather than decoding and formatting every item again.
//   * RuleSink: an append-only byte sink that formats numbers with
//     std::to_chars and either grows an in-memory string or streams to a
//     FILE through one fixed-size buffer, so no output is held whole.
//
// Both work on plain (attr, lo, hi) items — core's RangeItem and the rule
// file's StoredItem alike — so they live here, below core and serve.
// The bytes are those of the printf-based renderers they replaced
// (tests/golden/ pins them).
#ifndef QARM_STORAGE_RULE_TEXT_H_
#define QARM_STORAGE_RULE_TEXT_H_

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/string_util.h"
#include "partition/mapped_table.h"

namespace qarm {

// Escapes a string for embedding in a JSON document (quotes included).
std::string JsonEscape(std::string_view s);

// The rendered forms of one item.
struct ItemText {
  // "<name: range>", the CSV and text form; sides join it with " and ".
  std::string text;
  // True when `text` holds a comma, a quote or a newline: a CSV side with
  // such an item is written quoted, with its quotes doubled.
  bool needs_csv_quotes = false;
  // {"attribute":..,"kind":..,"lo":..,"hi":..,"display":..}, with "value"
  // in place of lo/hi for categorical items.
  std::string json;
  // The `rules dump` form: name[range] (quantitative) or name=label.
  std::string dump;
};

// Distinct items of a rule set, each rendered once. Fill it with Add*
// before rendering; afterwards it is read-only, so threads share it
// without locks. `attributes` must outlive the table.
class ItemTextTable {
 public:
  explicit ItemTextTable(const std::vector<MappedAttribute>& attributes)
      : attributes_(&attributes) {}

  // Renders the item unless it is already in the table.
  template <typename Item>
  void Add(const Item& item) {
    AddKey(Key{item.attr, item.lo, item.hi});
  }
  template <typename Items>
  void AddItems(const Items& items) {
    for (const auto& item : items) Add(item);
  }
  // Both sides of a QuantRule or StoredRule.
  template <typename Rule>
  void AddRule(const Rule& rule) {
    AddItems(rule.antecedent);
    AddItems(rule.consequent);
  }

  // The item's text; it must have been added.
  template <typename Item>
  const ItemText& Find(const Item& item) const {
    return FindKey(Key{item.attr, item.lo, item.hi});
  }

  size_t size() const { return items_.size(); }

 private:
  struct Key {
    int32_t attr;
    int32_t lo;
    int32_t hi;
    bool operator==(const Key& other) const {
      return attr == other.attr && lo == other.lo && hi == other.hi;
    }
  };
  struct KeyHash {
    size_t operator()(const Key& key) const;
  };

  void AddKey(const Key& key);
  const ItemText& FindKey(const Key& key) const;

  const std::vector<MappedAttribute>* attributes_;
  std::unordered_map<Key, ItemText, KeyHash> items_;
};

// Append-only output. A default-constructed sink collects the bytes in
// memory (TakeString); a FILE sink streams them through one fixed-size
// buffer.
class RuleSink {
 public:
  RuleSink() = default;
  // Streams to `file` (not owned). The destructor flushes; call Flush to
  // learn whether every write succeeded.
  explicit RuleSink(std::FILE* file);
  ~RuleSink();
  RuleSink(const RuleSink&) = delete;
  RuleSink& operator=(const RuleSink&) = delete;

  void Append(std::string_view s) {
    if (buffer_.size() - used_ < s.size()) Reserve(s.size());
    std::memcpy(buffer_.data() + used_, s.data(), s.size());
    used_ += s.size();
  }
  void Append(char c) {
    if (used_ == buffer_.size()) Reserve(1);
    buffer_[used_++] = c;
  }
  void AppendBool(bool value) { Append(value ? "true" : "false"); }
  void AppendUint(uint64_t value);
  // std::printf("%.*f", precision, value).
  void AppendFixed(double value, int precision) {
    AppendNumber(value, precision, false);
  }
  // FormatDouble(value): 6 decimals, trailing zeros trimmed.
  void AppendDouble(double value) { AppendNumber(value, 6, true); }
  // JsonEscape(s).
  void AppendJsonString(std::string_view s);

  // A rule side's text form: items joined with " and ".
  template <typename Items>
  void AppendTextSide(const Items& side, const ItemTextTable& items) {
    for (size_t i = 0; i < side.size(); ++i) {
      if (i > 0) Append(" and ");
      Append(items.Find(side[i]).text);
    }
  }
  // The text form as one CSV field: quoted, with quotes doubled, when any
  // item needs it.
  template <typename Items>
  void AppendCsvSide(const Items& side, const ItemTextTable& items) {
    bool quote = false;
    for (const auto& item : side) quote |= items.Find(item).needs_csv_quotes;
    if (!quote) {
      AppendTextSide(side, items);
      return;
    }
    Append('"');
    for (size_t i = 0; i < side.size(); ++i) {
      if (i > 0) Append(" and ");
      for (char c : items.Find(side[i]).text) {
        if (c == '"') Append('"');
        Append(c);
      }
    }
    Append('"');
  }
  // A JSON array of the side's item objects.
  template <typename Items>
  void AppendJsonSide(const Items& side, const ItemTextTable& items) {
    Append('[');
    for (size_t i = 0; i < side.size(); ++i) {
      if (i > 0) Append(',');
      Append(items.Find(side[i]).json);
    }
    Append(']');
  }
  // The `rules dump` form: items joined with " AND ".
  template <typename Items>
  void AppendDumpSide(const Items& side, const ItemTextTable& items) {
    for (size_t i = 0; i < side.size(); ++i) {
      if (i > 0) Append(" AND ");
      Append(items.Find(side[i]).dump);
    }
  }

  // Writes out the buffered bytes and flushes the file (a no-op for an
  // in-memory sink). False once any write to the file has failed.
  bool Flush();
  // Bytes appended so far.
  uint64_t bytes() const { return flushed_ + used_; }
  // An in-memory sink's bytes; the sink is empty afterwards.
  std::string TakeString();

 private:
  // Makes room for `n` more bytes: writes the buffer out (file) or grows
  // the string (memory).
  void Reserve(size_t n);
  // FormatFixed into the buffer.
  void AppendNumber(double value, int precision, bool trim_zeros);

  std::FILE* file_ = nullptr;
  std::string buffer_;  // the output (memory) or the write buffer (file)
  size_t used_ = 0;     // bytes of buffer_ holding output
  uint64_t flushed_ = 0;
  bool ok_ = true;
};

}  // namespace qarm

#endif  // QARM_STORAGE_RULE_TEXT_H_
