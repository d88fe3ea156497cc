#include "table/csv.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <string_view>
#include <utility>

#include <gtest/gtest.h>

namespace qarm {
namespace {

Schema PeopleSchema() {
  return Schema::Make(
             {{"Age", AttributeKind::kQuantitative, ValueType::kInt64},
              {"Married", AttributeKind::kCategorical, ValueType::kString},
              {"Score", AttributeKind::kQuantitative, ValueType::kDouble}})
      .value();
}

TEST(CsvTest, ParseBasic) {
  auto table = ReadCsvString(
      "Age,Married,Score\n"
      "23,No,1.5\n"
      "25,Yes,2\n",
      PeopleSchema());
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_EQ(table->num_rows(), 2u);
  EXPECT_EQ(table->Get(0, 0).as_int64(), 23);
  EXPECT_EQ(table->Get(1, 1).as_string(), "Yes");
  EXPECT_EQ(table->Get(0, 2).as_double(), 1.5);
}

TEST(CsvTest, TrimsWhitespace) {
  auto table = ReadCsvString(
      "Age,Married,Score\n"
      " 23 ,  No ,\t1.5\n",
      PeopleSchema());
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->Get(0, 1).as_string(), "No");
}

TEST(CsvTest, SkipsBlankLines) {
  auto table = ReadCsvString(
      "Age,Married,Score\n"
      "\n"
      "23,No,1.5\n"
      "   \n",
      PeopleSchema());
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->num_rows(), 1u);
}

TEST(CsvTest, RejectsEmptyInput) {
  auto table = ReadCsvString("", PeopleSchema());
  EXPECT_FALSE(table.ok());
}

TEST(CsvTest, RejectsWrongHeader) {
  auto table = ReadCsvString("Age,Single,Score\n", PeopleSchema());
  EXPECT_FALSE(table.ok());
  EXPECT_EQ(table.status().code(), StatusCode::kInvalidArgument);
}

TEST(CsvTest, RejectsWrongArity) {
  auto table = ReadCsvString(
      "Age,Married,Score\n"
      "23,No\n",
      PeopleSchema());
  EXPECT_FALSE(table.ok());
}

TEST(CsvTest, RejectsBadInt) {
  auto table = ReadCsvString(
      "Age,Married,Score\n"
      "abc,No,1.5\n",
      PeopleSchema());
  EXPECT_FALSE(table.ok());
  EXPECT_NE(table.status().message().find("abc"), std::string::npos);
}

TEST(CsvTest, RejectsBadDouble) {
  auto table = ReadCsvString(
      "Age,Married,Score\n"
      "23,No,1.5x\n",
      PeopleSchema());
  EXPECT_FALSE(table.ok());
}

// nan/inf parse as doubles but poison the partitioner's ordering (NaN
// breaks sort/lower_bound invariants downstream), so the reader rejects
// them at the boundary.
TEST(CsvTest, RejectsNonFiniteDouble) {
  for (const char* bad : {"nan", "NaN", "inf", "-inf", "1e999"}) {
    auto table = ReadCsvString(
        std::string("Age,Married,Score\n23,No,") + bad + "\n",
        PeopleSchema());
    EXPECT_FALSE(table.ok()) << "value: " << bad;
    EXPECT_EQ(table.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(CsvTest, RoundTripThroughString) {
  auto table = ReadCsvString(
      "Age,Married,Score\n"
      "23,No,1.5\n"
      "25,Yes,2\n",
      PeopleSchema());
  ASSERT_TRUE(table.ok());
  std::string csv = ToCsvString(*table);
  auto again = ReadCsvString(csv, PeopleSchema());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->num_rows(), 2u);
  EXPECT_EQ(again->Get(1, 0).as_int64(), 25);
  EXPECT_EQ(again->Get(1, 2).as_double(), 2.0);
}

TEST(CsvTest, FileRoundTrip) {
  auto table = ReadCsvString(
      "Age,Married,Score\n"
      "23,No,1.5\n",
      PeopleSchema());
  ASSERT_TRUE(table.ok());
  std::string path = testing::TempDir() + "/qarm_csv_test.csv";
  ASSERT_TRUE(WriteCsv(*table, path).ok());
  auto again = ReadCsv(path, PeopleSchema());
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again->num_rows(), 1u);
  std::remove(path.c_str());
}

TEST(CsvTest, ReadMissingFileFails) {
  auto table = ReadCsv("/nonexistent/qarm.csv", PeopleSchema());
  EXPECT_FALSE(table.ok());
  EXPECT_EQ(table.status().code(), StatusCode::kIOError);
}

// The open failure names its reason, so a missing file and a permission
// error read differently.
TEST(CsvTest, MissingFileNamesTheReason) {
  const std::string path = testing::TempDir() + "/qarm-no-such-file.csv";
  std::remove(path.c_str());
  auto table = ReadCsv(path, PeopleSchema());
  ASSERT_FALSE(table.ok());
  EXPECT_EQ(table.status().code(), StatusCode::kIOError);
  EXPECT_EQ(table.status().message(), "cannot open '" + path +
                                          "' for reading: " +
                                          std::strerror(ENOENT));
}

// --- RFC 4180 quoting ------------------------------------------------------

TEST(CsvTest, QuotedFieldWithComma) {
  auto table = ReadCsvString(
      "Age,Married,Score\n"
      "23,\"No, definitely not\",1.5\n",
      PeopleSchema());
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_EQ(table->Get(0, 1).as_string(), "No, definitely not");
}

TEST(CsvTest, QuotedFieldWithEscapedQuotes) {
  auto table = ReadCsvString(
      "Age,Married,Score\n"
      "23,\"said \"\"maybe\"\"\",1.5\n",
      PeopleSchema());
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_EQ(table->Get(0, 1).as_string(), "said \"maybe\"");
}

TEST(CsvTest, QuotedFieldSpanningLines) {
  auto table = ReadCsvString(
      "Age,Married,Score\n"
      "23,\"line one\nline two\",1.5\n"
      "25,Yes,2\n",
      PeopleSchema());
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  ASSERT_EQ(table->num_rows(), 2u);
  EXPECT_EQ(table->Get(0, 1).as_string(), "line one\nline two");
  EXPECT_EQ(table->Get(1, 0).as_int64(), 25);
}

TEST(CsvTest, QuotedStringsKeepWhitespaceVerbatim) {
  auto table = ReadCsvString(
      "Age,Married,Score\n"
      "23,\"  padded  \",1.5\n",
      PeopleSchema());
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->Get(0, 1).as_string(), "  padded  ");
}

TEST(CsvTest, CrlfLineEndings) {
  auto table = ReadCsvString(
      "Age,Married,Score\r\n"
      "23,No,1.5\r\n"
      "25,Yes,2\r\n",
      PeopleSchema());
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_EQ(table->num_rows(), 2u);
  EXPECT_EQ(table->Get(1, 1).as_string(), "Yes");
}

TEST(CsvTest, EmptyFieldIsNull) {
  auto table = ReadCsvString(
      "Age,Married,Score\n"
      "23,,1.5\n"
      ",No,\n",
      PeopleSchema());
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_TRUE(table->Get(0, 1).is_null());
  EXPECT_TRUE(table->Get(1, 0).is_null());
  EXPECT_TRUE(table->Get(1, 2).is_null());
  EXPECT_EQ(table->Get(1, 1).as_string(), "No");
}

TEST(CsvTest, UnterminatedQuoteReportsLine) {
  auto table = ReadCsvString(
      "Age,Married,Score\n"
      "23,No,1.5\n"
      "25,\"oops,2\n",
      PeopleSchema());
  ASSERT_FALSE(table.ok());
  EXPECT_NE(table.status().message().find("line 3"), std::string::npos)
      << table.status().ToString();
  EXPECT_NE(table.status().message().find("unterminated"), std::string::npos);
}

TEST(CsvTest, GarbageAfterClosingQuoteFails) {
  auto table = ReadCsvString(
      "Age,Married,Score\n"
      "23,\"No\"x,1.5\n",
      PeopleSchema());
  ASSERT_FALSE(table.ok());
  EXPECT_NE(table.status().message().find("after closing quote"),
            std::string::npos)
      << table.status().ToString();
}

TEST(CsvTest, ParseErrorsCarryRecordLineNumbers) {
  auto table = ReadCsvString(
      "Age,Married,Score\n"
      "23,No,1.5\n"
      "25,Yes,2\n"
      "bad,No,3\n",
      PeopleSchema());
  ASSERT_FALSE(table.ok());
  EXPECT_NE(table.status().message().find("line 4"), std::string::npos)
      << table.status().ToString();
}

// A multi-line quoted field advances the error line numbering past every
// physical line it spans.
TEST(CsvTest, LineNumbersCountLinesInsideQuotes) {
  auto table = ReadCsvString(
      "Age,Married,Score\n"
      "23,\"one\ntwo\nthree\",1.5\n"
      "bad,No,3\n",
      PeopleSchema());
  ASSERT_FALSE(table.ok());
  EXPECT_NE(table.status().message().find("line 5"), std::string::npos)
      << table.status().ToString();
}

TEST(CsvTest, WriterQuotesSpecialCharacters) {
  EXPECT_EQ(CsvQuoteField("plain"), "plain");
  EXPECT_EQ(CsvQuoteField("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvQuoteField("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(CsvQuoteField("two\nlines"), "\"two\nlines\"");
  EXPECT_EQ(CsvQuoteField(""), "");
}

TEST(CsvTest, SpecialCharactersRoundTrip) {
  auto table = ReadCsvString(
      "Age,Married,Score\n"
      "23,\"No, \"\"never\"\"\nreally\",1.5\n",
      PeopleSchema());
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  std::string csv = ToCsvString(*table);
  auto again = ReadCsvString(csv, PeopleSchema());
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  ASSERT_EQ(again->num_rows(), 1u);
  EXPECT_EQ(again->Get(0, 1).as_string(), "No, \"never\"\nreally");
}

// --- Chunked reading -------------------------------------------------------

// A read's outcome as one string: the status, or the table as CSV.
std::string Outcome(const Result<Table>& table) {
  return table.ok() ? ToCsvString(*table) : table.status().ToString();
}

// Writes `text` to a scratch file and reads it back with ReadCsv.
std::string ReadThroughFile(const std::string& text) {
  const std::string path = testing::TempDir() + "/qarm_csv_chunks.csv";
  {
    std::ofstream out(path, std::ios::binary);
    out << text;
  }
  std::string outcome = Outcome(ReadCsv(path, PeopleSchema()));
  std::remove(path.c_str());
  return outcome;
}

// A quoted field holding a "" escape, a CRLF and a newline is placed at
// every offset across the reader's first buffer boundary, so each of its
// bytes (and the CRLF ending the row) is in turn the last one of a chunk.
// Reading the file must give what reading the same text in memory gives,
// including the line number of an error after the boundary.
TEST(CsvTest, ChunkBoundaryMatchesInMemory) {
  for (int shift = -24; shift <= 24; ++shift) {
    const size_t quote_at = kCsvReadBufferBytes + shift;
    std::string text = "Age,Married,Score\r\n";
    while (text.size() + 32 < quote_at) text += "23,No,1.5\r\n";
    text += "25,";
    text.append(quote_at - text.size(), ' ');
    text += "\"x\"\"y\r\nz\",2.5\r\n";
    while (text.size() < kCsvReadBufferBytes + 256) text += "24,Yes,3\n";
    ASSERT_EQ(text[quote_at], '"');
    const std::string expected = Outcome(ReadCsvString(text, PeopleSchema()));
    ASSERT_NE(expected.find("x\"\"y"), std::string::npos) << expected;
    EXPECT_EQ(ReadThroughFile(text), expected) << "shift " << shift;

    text += "bad,No,1\r\n";
    const std::string error = Outcome(ReadCsvString(text, PeopleSchema()));
    ASSERT_NE(error.find("is not an int64"), std::string::npos) << error;
    EXPECT_EQ(ReadThroughFile(text), error) << "shift " << shift;
  }
}

// A record longer than the read buffer grows it instead of failing.
TEST(CsvTest, RecordLongerThanBuffer) {
  const std::string label(3 * kCsvReadBufferBytes, 'w');
  const std::string text =
      "Age,Married,Score\n23,\"" + label + "\",1.5\n25,Yes,2\n";
  const std::string expected = Outcome(ReadCsvString(text, PeopleSchema()));
  ASSERT_NE(expected.find(label), std::string::npos);
  EXPECT_EQ(ReadThroughFile(text), expected);
}

// Reading a directory fails at the first read: an IOError naming the path
// and the reason, not an "empty CSV input".
TEST(CsvTest, DirectoryInputIsIOError) {
  const std::string dir = testing::TempDir();
  auto table = ReadCsv(dir, PeopleSchema());
  ASSERT_FALSE(table.ok());
  EXPECT_EQ(table.status().code(), StatusCode::kIOError);
  EXPECT_EQ(table.status().message(),
            "cannot read '" + dir + "': " + std::strerror(EISDIR));
}

// A read that fails after some records were parsed ends the parse with the
// read's own status.
TEST(CsvTest, ReadErrorPartwayIsIOError) {
  const std::string text = "Age,Married,Score\n23,No,1.5\n25,Ye";
  size_t pos = 0;
  const CsvReadFn read = [&](char* dst, size_t capacity) -> Result<size_t> {
    if (pos == text.size()) {
      return Status::IOError("cannot read 'input': Input/output error");
    }
    const size_t n = std::min({capacity, text.size() - pos, size_t{7}});
    std::memcpy(dst, text.data() + pos, n);
    pos += n;
    return n;
  };
  auto table = ReadCsvFrom(read, PeopleSchema());
  ASSERT_FALSE(table.ok());
  EXPECT_EQ(table.status().ToString(),
            "IOError: cannot read 'input': Input/output error");
}

// ReadCsvFrom over a source that hands out a few bytes per call reads what
// ReadCsvString reads.
TEST(CsvTest, ShortReadsMatchInMemory) {
  const std::string text =
      "Age,Married,Score\r\n23,\"a \"\"b\"\"\nc\",1.5\r\n\r\n25,Yes,2";
  for (size_t step : {1, 2, 3, 5}) {
    size_t pos = 0;
    const CsvReadFn read = [&](char* dst, size_t capacity) -> Result<size_t> {
      const size_t n = std::min({capacity, text.size() - pos, step});
      std::memcpy(dst, text.data() + pos, n);
      pos += n;
      return n;
    };
    EXPECT_EQ(Outcome(ReadCsvFrom(read, PeopleSchema())),
              Outcome(ReadCsvString(text, PeopleSchema())))
        << "step " << step;
  }
}

// --- Pinned outcomes -------------------------------------------------------

// One cell as text: NULL, an int64, a double to 17 significant digits, or a
// bracketed string.
std::string CellText(const Column& column, size_t row) {
  if (column.IsNull(row)) return "null";
  switch (column.type()) {
    case ValueType::kInt64:
      return std::to_string(column.GetInt64(row));
    case ValueType::kDouble: {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.17g", column.GetDouble(row));
      return buf;
    }
    case ValueType::kString:
      return "[" + column.GetString(row) + "]";
  }
  return "?";
}

// The outcome of reading `text` as one string: the status (code and
// message) on failure, else every cell, rows separated by ';'.
std::string ReadOutcome(std::string_view text) {
  Schema schema = Schema::Parse("I:quant:int,D:quant:double,S:cat").value();
  auto table = ReadCsvString(std::string(text), schema);
  if (!table.ok()) return table.status().ToString();
  std::string out;
  for (size_t r = 0; r < table->num_rows(); ++r) {
    if (r > 0) out += ';';
    for (size_t c = 0; c < table->num_columns(); ++c) {
      if (c > 0) out += ',';
      out += CellText(table->column(c), r);
    }
  }
  return out;
}

// The reader's exact accept/reject decision, status code, message and line
// number, or parsed cells, for the number forms where std::from_chars and
// strtoll/strtod disagree (sign, hex, subnormals, range edges, an embedded
// NUL, leading \v) and for every structural corner: CRLF and bare CR, quoted
// newlines before a later error, "" escapes, text after a closing quote,
// blank lines, a missing final newline and header mismatches.
TEST(CsvTest, PinnedReadOutcomes) {
  using namespace std::literals;
  const std::pair<std::string_view, std::string_view> kCases[] = {
      {"I,D,S\n+5,1,x\n"sv, "5,1,[x]"sv},
      {"I,D,S\n1,+5,x\n"sv, "1,5,[x]"sv},
      {"I,D,S\n-0,1,x\n"sv, "0,1,[x]"sv},
      {"I,D,S\n1,-0,x\n"sv, "1,-0,[x]"sv},
      {"I,D,S\n00012,1,x\n"sv, "12,1,[x]"sv},
      {"I,D,S\n1,00012,x\n"sv, "1,12,[x]"sv},
      {"I,D,S\n0x10,1,x\n"sv, "InvalidArgument: line 2: '0x10' is not an int64"sv},
      {"I,D,S\n1,0x10,x\n"sv, "1,16,[x]"sv},
      {"I,D,S\n0x1p3,1,x\n"sv, "InvalidArgument: line 2: '0x1p3' is not an int64"sv},
      {"I,D,S\n1,0x1p3,x\n"sv, "1,8,[x]"sv},
      {"I,D,S\n.5,1,x\n"sv, "InvalidArgument: line 2: '.5' is not an int64"sv},
      {"I,D,S\n1,.5,x\n"sv, "1,0.5,[x]"sv},
      {"I,D,S\n5.,1,x\n"sv, "InvalidArgument: line 2: '5.' is not an int64"sv},
      {"I,D,S\n1,5.,x\n"sv, "1,5,[x]"sv},
      {"I,D,S\n1e5,1,x\n"sv, "InvalidArgument: line 2: '1e5' is not an int64"sv},
      {"I,D,S\n1,1e5,x\n"sv, "1,100000,[x]"sv},
      {"I,D,S\n1e-400,1,x\n"sv, "InvalidArgument: line 2: '1e-400' is not an int64"sv},
      {"I,D,S\n1,1e-400,x\n"sv, "InvalidArgument: line 2: '1e-400' is not a double"sv},
      {"I,D,S\n4.9e-324,1,x\n"sv, "InvalidArgument: line 2: '4.9e-324' is not an int64"sv},
      {"I,D,S\n1,4.9e-324,x\n"sv, "InvalidArgument: line 2: '4.9e-324' is not a double"sv},
      {"I,D,S\n2.2250738585072011e-308,1,x\n"sv, "InvalidArgument: line 2: '2.2250738585072011e-308' is not an int64"sv},
      {"I,D,S\n1,2.2250738585072011e-308,x\n"sv, "InvalidArgument: line 2: '2.2250738585072011e-308' is not a double"sv},
      {"I,D,S\n1e308,1,x\n"sv, "InvalidArgument: line 2: '1e308' is not an int64"sv},
      {"I,D,S\n1,1e308,x\n"sv, "1,1e+308,[x]"sv},
      {"I,D,S\n1e309,1,x\n"sv, "InvalidArgument: line 2: '1e309' is not an int64"sv},
      {"I,D,S\n1,1e309,x\n"sv, "InvalidArgument: line 2: '1e309' is not a double"sv},
      {"I,D,S\n9223372036854775807,1,x\n"sv, "9223372036854775807,1,[x]"sv},
      {"I,D,S\n1,9223372036854775807,x\n"sv, "1,9.2233720368547758e+18,[x]"sv},
      {"I,D,S\n9223372036854775808,1,x\n"sv, "InvalidArgument: line 2: '9223372036854775808' is not an int64"sv},
      {"I,D,S\n1,9223372036854775808,x\n"sv, "1,9.2233720368547758e+18,[x]"sv},
      {"I,D,S\n-9223372036854775808,1,x\n"sv, "-9223372036854775808,1,[x]"sv},
      {"I,D,S\n1,-9223372036854775808,x\n"sv, "1,-9.2233720368547758e+18,[x]"sv},
      {"I,D,S\n-9223372036854775809,1,x\n"sv, "InvalidArgument: line 2: '-9223372036854775809' is not an int64"sv},
      {"I,D,S\n1,-9223372036854775809,x\n"sv, "1,-9.2233720368547758e+18,[x]"sv},
      {"I,D,S\n 5 ,1,x\n"sv, "5,1,[x]"sv},
      {"I,D,S\n1, 5 ,x\n"sv, "1,5,[x]"sv},
      {"I,D,S\n\t-7\t,1,x\n"sv, "-7,1,[x]"sv},
      {"I,D,S\n1,\t-7\t,x\n"sv, "1,-7,[x]"sv},
      {"I,D,S\n\v5,1,x\n"sv, "5,1,[x]"sv},
      {"I,D,S\n1,\v5,x\n"sv, "1,5,[x]"sv},
      {"I,D,S\n5x,1,x\n"sv, "InvalidArgument: line 2: '5x' is not an int64"sv},
      {"I,D,S\n1,5x,x\n"sv, "InvalidArgument: line 2: '5x' is not a double"sv},
      {"I,D,S\ninf,1,x\n"sv, "InvalidArgument: line 2: 'inf' is not an int64"sv},
      {"I,D,S\n1,inf,x\n"sv, "InvalidArgument: line 2: 'inf' is not a finite number"sv},
      {"I,D,S\nnan,1,x\n"sv, "InvalidArgument: line 2: 'nan' is not an int64"sv},
      {"I,D,S\n1,nan,x\n"sv, "InvalidArgument: line 2: 'nan' is not a finite number"sv},
      {"I,D,S\n-,1,x\n"sv, "InvalidArgument: line 2: '-' is not an int64"sv},
      {"I,D,S\n1,-,x\n"sv, "InvalidArgument: line 2: '-' is not a double"sv},
      {"I,D,S\n1.5,1,x\n"sv, "InvalidArgument: line 2: '1.5' is not an int64"sv},
      {"I,D,S\n1,1.5,x\n"sv, "1,1.5,[x]"sv},
      {"I,D,S\n-0.0,1,x\n"sv, "InvalidArgument: line 2: '-0.0' is not an int64"sv},
      {"I,D,S\n1,-0.0,x\n"sv, "1,-0,[x]"sv},
      {"I,D,S\n0,1,x\n"sv, "0,1,[x]"sv},
      {"I,D,S\n1,0,x\n"sv, "1,0,[x]"sv},
      {"I,D,S\n0.0,1,x\n"sv, "InvalidArgument: line 2: '0.0' is not an int64"sv},
      {"I,D,S\n1,0.0,x\n"sv, "1,0,[x]"sv},
      {"I,D,S\n1E5,1,x\n"sv, "InvalidArgument: line 2: '1E5' is not an int64"sv},
      {"I,D,S\n1,1E5,x\n"sv, "1,100000,[x]"sv},
      {"I,D,S\n1e+5,1,x\n"sv, "InvalidArgument: line 2: '1e+5' is not an int64"sv},
      {"I,D,S\n1,1e+5,x\n"sv, "1,100000,[x]"sv},
      {"I,D,S\n-.5e-3,1,x\n"sv, "InvalidArgument: line 2: '-.5e-3' is not an int64"sv},
      {"I,D,S\n1,-.5e-3,x\n"sv, "1,-0.00050000000000000001,[x]"sv},
      {"I,D,S\n  ,1,x\n"sv, "null,1,[x]"sv},
      {"I,D,S\n1,  ,x\n"sv, "1,null,[x]"sv},
      {"I,D,S\n2.2250738585072014e-308,1,x\n"sv, "InvalidArgument: line 2: '2.2250738585072014e-308' is not an int64"sv},
      {"I,D,S\n1,2.2250738585072014e-308,x\n"sv, "1,2.2250738585072014e-308,[x]"sv},
      {"I,D,S\n2.2250738585072012e-308,1,x\n"sv, "InvalidArgument: line 2: '2.2250738585072012e-308' is not an int64"sv},
      {"I,D,S\n1,2.2250738585072012e-308,x\n"sv, "InvalidArgument: line 2: '2.2250738585072012e-308' is not a double"sv},
      {"I,D,S\n1.7976931348623157e308,1,x\n"sv, "InvalidArgument: line 2: '1.7976931348623157e308' is not an int64"sv},
      {"I,D,S\n1,1.7976931348623157e308,x\n"sv, "1,1.7976931348623157e+308,[x]"sv},
      {"I,D,S\n1.7976931348623159e308,1,x\n"sv, "InvalidArgument: line 2: '1.7976931348623159e308' is not an int64"sv},
      {"I,D,S\n1,1.7976931348623159e308,x\n"sv, "InvalidArgument: line 2: '1.7976931348623159e308' is not a double"sv},
      {"I,D,S\n1e-310,1,x\n"sv, "InvalidArgument: line 2: '1e-310' is not an int64"sv},
      {"I,D,S\n1,1e-310,x\n"sv, "InvalidArgument: line 2: '1e-310' is not a double"sv},
      {"I,D,S\n0e999,1,x\n"sv, "InvalidArgument: line 2: '0e999' is not an int64"sv},
      {"I,D,S\n1,0e999,x\n"sv, "1,0,[x]"sv},
      {"I,D,S\n0x,1,x\n"sv, "InvalidArgument: line 2: '0x' is not an int64"sv},
      {"I,D,S\n1,0x,x\n"sv, "InvalidArgument: line 2: '0x' is not a double"sv},
      {"I,D,S\n1_000,1,x\n"sv, "InvalidArgument: line 2: '1_000' is not an int64"sv},
      {"I,D,S\n1,1_000,x\n"sv, "InvalidArgument: line 2: '1_000' is not a double"sv},
      {"I,D,S\n5\000x,1,x\n"sv, "5,1,[x]"sv},
      {"I,D,S\n1,2.5\000x,x\n"sv, "1,2.5,[x]"sv},
      {"I,D,S\n1,2,a\000b\n"sv, "1,2,[a\000b]"sv},
      {"I,D,S\n\" 5 \",\" 2.5\n\",x\n"sv, "5,2.5,[x]"sv},
      {"I,D,S\n\"\",\"\",\"\"\n"sv, "null,null,null"sv},
      {"I,D,S\n\"1\"\"2\",1,x\n"sv, "InvalidArgument: line 2: '1\"2' is not an int64"sv},
      {"I,D,S\n1,2,\t\"a\"\r\n"sv, "1,2,[a]"sv},
      {"I,D,S\r\n1,2,a\r\n3,4,b\r\n"sv, "1,2,[a];3,4,[b]"sv},
      {"I,D,S\r1,2,a\r3,4,b"sv, "1,2,[a];3,4,[b]"sv},
      {"I,D,S\r1,2,a\rx,4,b\r"sv, "InvalidArgument: line 3: 'x' is not an int64"sv},
      {"I,D,S\n1,2,a\r\n\r3,4,b\rbad,5,c\n"sv, "InvalidArgument: line 5: 'bad' is not an int64"sv},
      {"I,D,S\n1,2,\"x\ny\"\n3,4,\"p\r\nq\"\nbad,2,z\n"sv, "InvalidArgument: line 6: 'bad' is not an int64"sv},
      {"I,D,S\n1,\"2\nq\",x\n"sv, "InvalidArgument: line 3: '2\nq' is not a double"sv},
      {"I,D,S\n1,\"2\n\"\n"sv, "InvalidArgument: line 3 has 2 fields, expected 3"sv},
      {"I,D,S\n1,2,\"a\nb\"c\n"sv, "InvalidArgument: line 3: unexpected character after closing quote"sv},
      {"I,D,S\n1,2,\"a\nb\n"sv, "InvalidArgument: line 2: unterminated quoted field"sv},
      {"\"I,D,S\n1,2,3\n"sv, "InvalidArgument: line 1: unterminated quoted field"sv},
      {"I,D,S\n1,2,\"a\"\"b\"\n1,2,\"\"\"\"\n1,2,\"\"\"x\"\"\"\n"sv, "1,2,[a\"b];1,2,[\"];1,2,[\"x\"]"sv},
      {"I,D,S\n1,2,\"a\"  \t\n"sv, "1,2,[a]"sv},
      {"I,D,S\n1,2,\"a\"  x\n"sv, "InvalidArgument: line 2: unexpected character after closing quote"sv},
      {"I,D,S\n1,2,\"a\" \"b\"\n"sv, "InvalidArgument: line 2: unexpected character after closing quote"sv},
      {"I,D,S\n1,2,  \"a b\" \n"sv, "1,2,[a b]"sv},
      {"I,D,S\n1,2,a\"b\"c\n"sv, "1,2,[a\"b\"c]"sv},
      {"I,D,S\n1,2,\"a\rb\"\nz,1,x\n"sv, "InvalidArgument: line 3: 'z' is not an int64"sv},
      {"I,D,S\n\n1,2,a\n  \t\n\r\n3,4,b\n\n"sv, "1,2,[a];3,4,[b]"sv},
      {"\nI,D,S\n1,2,a\n"sv, "InvalidArgument: empty CSV input"sv},
      {"I,D,S\n1,2,a\n3,4,b"sv, "1,2,[a];3,4,[b]"sv},
      {"I,D,S\n1,2,\"b\""sv, "1,2,[b]"sv},
      {"I,D,S"sv, ""sv},
      {""sv, "InvalidArgument: empty CSV input"sv},
      {"   "sv, "InvalidArgument: empty CSV input"sv},
      {"I,X,S\n1,2,a\n"sv, "InvalidArgument: header field 1 is 'X', schema expects 'D'"sv},
      {"I,D\n1,2\n"sv, "InvalidArgument: header has 2 fields, schema has 3 attributes"sv},
      {"\" I\", D ,\"S\"\n1,2,a\n"sv, "InvalidArgument: header field 0 is ' I', schema expects 'I'"sv},
      {"\"I\", D ,\"S\"\n1,2,a\n"sv, "1,2,[a]"sv},
      {"I,D,S\n1,2,a\n1,2\n"sv, "InvalidArgument: line 3 has 2 fields, expected 3"sv},
      {"I,D,S\n1,2,a,\n"sv, "InvalidArgument: line 2 has 4 fields, expected 3"sv},
      {"I,D,S\n1,2,  a b  \n1,2,\t\n"sv, "1,2,[a b];1,2,null"sv},
      {"I,D,S\nx,y,z\n"sv, "InvalidArgument: line 2: 'x' is not an int64"sv},
  };
  for (const auto& [input, expected] : kCases) {
    EXPECT_EQ(ReadOutcome(input), expected) << "input: " << input;
  }
}

}  // namespace
}  // namespace qarm
