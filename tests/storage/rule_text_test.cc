#include "storage/rule_text.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "storage/rules_format.h"

namespace qarm {
namespace {

std::vector<MappedAttribute> Attrs() {
  MappedAttribute age;
  age.name = "age";
  age.kind = AttributeKind::kQuantitative;
  age.source_type = ValueType::kInt64;
  age.partitioned = true;
  age.intervals = {{20, 24}, {25, 29.5}, {30, 39}};

  MappedAttribute tag;
  tag.name = "tag";
  tag.labels = {"a,b", "say \"hi\"", "plain"};

  MappedAttribute region;
  region.name = "region";
  region.labels = {"north", "south", "east", "west"};
  region.taxonomy_ranges = {{"coast", 0, 1}};
  return {age, tag, region};
}

TEST(ItemTextTableTest, RendersEveryForm) {
  const std::vector<MappedAttribute> attrs = Attrs();
  ItemTextTable items(attrs);
  const StoredItem age{0, 1, 2};
  const StoredItem quoted{1, 1, 1};
  const StoredItem node{2, 0, 1};
  const StoredItem leaves{2, 1, 2};
  items.AddItems(std::vector<StoredItem>{age, quoted, node, leaves});

  const ItemText& a = items.Find(age);
  EXPECT_EQ(a.text, "<age: 25..39>");
  EXPECT_FALSE(a.needs_csv_quotes);
  EXPECT_EQ(a.json,
            "{\"attribute\":\"age\",\"kind\":\"quantitative\",\"lo\":25,"
            "\"hi\":39,\"display\":\"25..39\"}");
  EXPECT_EQ(a.dump, "age[25..39]");

  const ItemText& q = items.Find(quoted);
  EXPECT_EQ(q.text, "<tag: say \"hi\">");
  EXPECT_TRUE(q.needs_csv_quotes);
  EXPECT_EQ(q.json,
            "{\"attribute\":\"tag\",\"kind\":\"categorical\","
            "\"value\":\"say \\\"hi\\\"\",\"display\":\"say \\\"hi\\\"\"}");
  EXPECT_EQ(q.dump, "tag=say \"hi\"");

  EXPECT_EQ(items.Find(node).text, "<region: coast>");
  EXPECT_EQ(items.Find(leaves).text, "<region: south|east>");
}

TEST(ItemTextTableTest, RendersEachDistinctItemOnce) {
  const std::vector<MappedAttribute> attrs = Attrs();
  ItemTextTable items(attrs);
  StoredRule rule;
  rule.antecedent = {{0, 0, 0}, {1, 2, 2}};
  rule.consequent = {{2, 3, 3}};
  for (int i = 0; i < 3; ++i) items.AddRule(rule);
  items.Add(StoredItem{0, 0, 1});
  EXPECT_EQ(items.size(), 4u);
}

TEST(RuleSinkTest, SidesJoinAndQuote) {
  const std::vector<MappedAttribute> attrs = Attrs();
  ItemTextTable items(attrs);
  const std::vector<StoredItem> plain = {{0, 0, 0}, {1, 2, 2}};
  const std::vector<StoredItem> quoted = {{0, 2, 2}, {1, 1, 1}};
  items.AddItems(plain);
  items.AddItems(quoted);
  RuleSink sink;
  sink.AppendCsvSide(plain, items);
  sink.Append('|');
  sink.AppendCsvSide(quoted, items);
  sink.Append('|');
  sink.AppendTextSide(quoted, items);
  sink.Append('|');
  sink.AppendDumpSide(plain, items);
  sink.Append('|');
  sink.AppendJsonSide(std::vector<StoredItem>{{1, 2, 2}}, items);
  EXPECT_EQ(sink.TakeString(),
            "<age: 20..24> and <tag: plain>|"
            "\"<age: 30..39> and <tag: say \"\"hi\"\">\"|"
            "<age: 30..39> and <tag: say \"hi\">|"
            "age[20..24] AND tag=plain|"
            "[{\"attribute\":\"tag\",\"kind\":\"categorical\","
            "\"value\":\"plain\",\"display\":\"plain\"}]");
}

TEST(RuleSinkTest, JsonStringEscapesEveryByte) {
  for (int c = 0; c < 256; ++c) {
    const char ch = static_cast<char>(c);
    std::string expected;
    switch (ch) {
      case '"':
        expected = "\\\"";
        break;
      case '\\':
        expected = "\\\\";
        break;
      case '\n':
        expected = "\\n";
        break;
      case '\r':
        expected = "\\r";
        break;
      case '\t':
        expected = "\\t";
        break;
      default:
        expected = c < 0x20 ? StrFormat("\\u%04x", c) : std::string(1, ch);
    }
    EXPECT_EQ(JsonEscape(std::string(1, ch)), "\"" + expected + "\"")
        << "byte " << c;
  }
}

TEST(RuleSinkTest, NumbersMatchStringFormatting) {
  RuleSink sink;
  sink.AppendUint(0);
  sink.Append(' ');
  sink.AppendUint(18446744073709551615ull);
  sink.Append(' ');
  sink.AppendFixed(0.1234565, 6);
  sink.Append(' ');
  sink.AppendFixed(56.25, 1);
  sink.Append(' ');
  sink.AppendDouble(2.50);
  sink.Append(' ');
  sink.AppendDouble(3.0);
  sink.Append(' ');
  sink.AppendBool(false);
  EXPECT_EQ(sink.TakeString(),
            StrFormat("0 18446744073709551615 %.6f %.1f 2.5 3 false",
                      0.1234565, 56.25));
}

// A file sink writes the same bytes as an in-memory one, across many
// buffer flushes and for a fragment larger than the whole buffer.
TEST(RuleSinkTest, FileSinkStreamsTheSameBytes) {
  std::FILE* file = std::tmpfile();
  ASSERT_NE(file, nullptr);
  RuleSink memory;
  const std::string big(200 * 1024, 'x');
  {
    RuleSink out(file);
    for (RuleSink* sink : {&memory, &out}) {
      for (int i = 0; i < 50000; ++i) {
        sink->AppendUint(static_cast<uint64_t>(i));
        sink->Append(',');
        sink->AppendFixed(i / 7.0, 6);
        sink->Append('\n');
      }
      sink->Append(big);
      sink->AppendJsonString("end\x01");
    }
    EXPECT_EQ(out.bytes(), memory.bytes());
    EXPECT_TRUE(out.Flush());
  }
  const std::string expected = memory.TakeString();
  std::string written(expected.size() + 1, '\0');
  std::rewind(file);
  written.resize(std::fread(written.data(), 1, written.size(), file));
  std::fclose(file);
  EXPECT_EQ(written.size(), expected.size());
  EXPECT_TRUE(written == expected);
}

TEST(RuleSinkTest, FlushReportsAFailedWrite) {
  std::FILE* full = std::fopen("/dev/full", "w");
  if (full == nullptr) GTEST_SKIP() << "no /dev/full";
  {
    RuleSink out(full);
    out.Append(std::string(100 * 1024, 'x'));
    EXPECT_FALSE(out.Flush());
  }
  std::fclose(full);
}

}  // namespace
}  // namespace qarm
