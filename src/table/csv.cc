#include "table/csv.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cfloat>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string_view>
#include <vector>

#include "common/string_util.h"

namespace qarm {
namespace {

// Reads CSV records (RFC 4180: fields may be double-quoted; a quoted field
// may contain commas, escaped quotes as "", and newlines) from a byte
// window: the whole text of an in-memory input, or a buffer refilled
// through a CsvReadFn. A record is scanned only when it lies wholly inside
// the window; one cut by the window's end is moved to the buffer's front
// and scanned again after the refill. Unquoted fields and quoted fields
// without escapes are views into the window; only a quoted field with ""
// escapes is copied (collapsed into `scratch_`).
class CsvRecordReader {
 public:
  // In-memory text: one window, nothing to refill.
  explicit CsvRecordReader(std::string_view text)
      : data_(text.data()), end_(text.size()), eof_(true) {}
  // Chunked input pulled through `read`.
  explicit CsvRecordReader(const CsvReadFn* read)
      : read_(read), buffer_(kCsvReadBufferBytes) {}

  // Scans the next record; false at end of input. The fields stay valid
  // until the next call.
  Result<bool> Next() {
    while (true) {
      QARM_ASSIGN_OR_RETURN(Scan scan, ScanRecord());
      if (scan == Scan::kRecord) return true;
      if (scan == Scan::kEnd) return false;
      QARM_RETURN_NOT_OK(Refill());
    }
  }

  // Number of physical lines up to the end of the last record: its
  // 1-based line number when it spans one line.
  size_t line() const { return lines_; }
  size_t num_fields() const { return fields_.size(); }
  bool quoted(size_t i) const { return fields_[i].quoted; }
  std::string_view text(size_t i) const {
    const Field& f = fields_[i];
    return {(f.in_scratch ? scratch_.data() : record_) + f.begin, f.size};
  }

  // A record is a blank line when it is a single unquoted whitespace field.
  bool IsBlank() const {
    return fields_.size() == 1 && !fields_[0].quoted &&
           StripWhitespace(text(0)).empty();
  }

 private:
  enum class Scan { kRecord, kNeedMore, kEnd };

  // One field of the last record: [begin, begin + size) of the record's
  // bytes, or of `scratch_` for a quoted field whose escapes were collapsed.
  struct Field {
    size_t begin = 0;
    size_t size = 0;
    bool quoted = false;
    bool in_scratch = false;
  };

  static bool IsBlankChar(char c) { return c == ' ' || c == '\t'; }

  // Scans one record at the front of the window. kNeedMore when the record
  // (or the byte after a closing quote or a CR, which decides what they
  // mean) runs past the window's end and more input may follow.
  Result<Scan> ScanRecord() {
    const char* const first = data_ + begin_;
    const char* const last = data_ + end_;
    if (first == last) return eof_ ? Scan::kEnd : Scan::kNeedMore;
    fields_.clear();
    scratch_.clear();
    record_ = first;
    const size_t record_line = lines_ + 1;
    size_t newlines = 0;  // inside the quoted fields scanned so far
    const char* p = first;
    while (true) {
      const char* const start = p;
      while (p != last && IsBlankChar(*p)) ++p;
      if (p == last && !eof_) return Scan::kNeedMore;
      Field field;
      if (p != last && *p == '"') {
        // Opening quote (leniently allowed after leading whitespace): the
        // field is everything up to the closing quote, "" is a literal ".
        const char* const content = ++p;
        bool escaped = false;
        const char* close = nullptr;
        while (close == nullptr) {
          const char* q = static_cast<const char*>(
              std::memchr(p, '"', static_cast<size_t>(last - p)));
          newlines += static_cast<size_t>(std::count(p, q ? q : last, '\n'));
          if (q == nullptr) {
            if (!eof_) return Scan::kNeedMore;
            return Status::InvalidArgument(StrFormat(
                "line %zu: unterminated quoted field", record_line));
          }
          // A quote that ends the window closes the field for now; the
          // check after the closing quote asks for the byte that decides.
          if (q + 1 != last && q[1] == '"') {
            escaped = true;
            p = q + 2;
          } else {
            close = q;
          }
        }
        field = {static_cast<size_t>(content - first),
                 static_cast<size_t>(close - content), true, false};
        if (escaped) {
          field.begin = scratch_.size();
          for (const char* c = content; c != close; ++c) {
            scratch_ += *c;
            if (*c == '"') ++c;  // the second quote of a "" pair
          }
          field.size = scratch_.size() - field.begin;
          field.in_scratch = true;
        }
        // Trailing whitespace after a closing quote is ignored; anything
        // else but a delimiter is an error.
        p = close + 1;
        while (p != last && IsBlankChar(*p)) ++p;
        if (p == last && !eof_) return Scan::kNeedMore;
        if (p != last && *p != ',' && *p != '\n' && *p != '\r') {
          return Status::InvalidArgument(
              StrFormat("line %zu: unexpected character after closing quote",
                        record_line + newlines));
        }
      } else {
        // Unquoted: up to the next delimiter; a quote here is literal.
        while (p != last && *p != ',' && *p != '\n' && *p != '\r') ++p;
        if (p == last && !eof_) return Scan::kNeedMore;
        field = {static_cast<size_t>(start - first),
                 static_cast<size_t>(p - start), false, false};
      }
      fields_.push_back(field);
      if (p == last) break;  // end of input ends the record
      const char delimiter = *p++;
      if (delimiter == ',') continue;
      if (delimiter == '\r') {
        if (p == last && !eof_) return Scan::kNeedMore;
        if (p != last && *p == '\n') ++p;
      }
      break;
    }
    begin_ += static_cast<size_t>(p - first);
    lines_ = record_line + newlines;
    return Scan::kRecord;
  }

  // Moves the unscanned bytes to the buffer's front (doubling the buffer
  // when they fill it) and reads until the buffer is full or the input
  // ends, so a long record is rescanned at most once per buffer fill.
  Status Refill() {
    const size_t unread = end_ - begin_;
    std::memmove(buffer_.data(), buffer_.data() + begin_, unread);
    begin_ = 0;
    end_ = unread;
    if (end_ == buffer_.size()) buffer_.resize(buffer_.size() * 2);
    data_ = buffer_.data();
    while (end_ < buffer_.size()) {
      QARM_ASSIGN_OR_RETURN(size_t n,
                            (*read_)(buffer_.data() + end_,
                                     buffer_.size() - end_));
      if (n == 0) {
        eof_ = true;
        break;
      }
      end_ += n;
    }
    return Status::OK();
  }

  const CsvReadFn* read_ = nullptr;
  std::vector<char> buffer_;
  const char* data_ = nullptr;  // the window is [data_ + begin_, data_ + end_)
  size_t begin_ = 0;
  size_t end_ = 0;
  bool eof_ = false;

  const char* record_ = nullptr;
  std::vector<Field> fields_;
  std::string scratch_;
  size_t lines_ = 0;
};

// An int64 cell, accepted and valued exactly as by strtoll (base 10) with
// an errno and full-consumption check. std::from_chars decides the plain
// forms "-?[0-9]+" in range, where the two agree; whatever it rejects (a
// '+' sign, a leading \v or \f, overflow, trailing bytes) is decided by
// strtoll.
Result<int64_t> ParseInt64Cell(std::string_view text, size_t line) {
  int64_t v = 0;
  const char* const last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), last, v);
  if (ec == std::errc() && ptr == last) return v;
  const std::string field(text);
  errno = 0;
  char* end = nullptr;
  const long long parsed = std::strtoll(field.c_str(), &end, 10);
  if (errno != 0 || end == field.c_str() || *end != '\0') {
    return Status::InvalidArgument(
        StrFormat("line %zu: '%s' is not an int64", line, field.c_str()));
  }
  return static_cast<int64_t>(parsed);
}

// A double cell, accepted and valued exactly as by strtod with an errno,
// full-consumption and finiteness check. std::from_chars decides finite
// values of at least 2 * DBL_MIN in magnitude, where both round correctly
// to the same double. Everything else is decided by strtod: zero, hex
// floats, a '+' sign, inf/nan, trailing bytes, and magnitudes near or below
// DBL_MIN, which strtod rejects with ERANGE (as it does an input just below
// DBL_MIN that rounds up to it) while from_chars accepts them.
Result<double> ParseDoubleCell(std::string_view text, size_t line) {
  double v = 0.0;
  const char* const last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), last, v);
  if (ec == std::errc() && ptr == last && std::isfinite(v) &&
      std::fabs(v) >= 2 * DBL_MIN) {
    return v;
  }
  const std::string field(text);
  errno = 0;
  char* end = nullptr;
  v = std::strtod(field.c_str(), &end);
  if (errno != 0 || end == field.c_str() || *end != '\0') {
    return Status::InvalidArgument(
        StrFormat("line %zu: '%s' is not a double", line, field.c_str()));
  }
  // strtod accepts "nan"/"inf"; neither can be partitioned (NaN breaks
  // the ordering the interval assignment relies on), so reject them as
  // malformed data rather than letting them poison the mapper.
  if (!std::isfinite(v)) {
    return Status::InvalidArgument(StrFormat(
        "line %zu: '%s' is not a finite number", line, field.c_str()));
  }
  return v;
}

// Parses one field straight into its column. Quoted strings are verbatim,
// every other field is trimmed; an empty field is NULL.
Status AppendCell(std::string_view raw, bool quoted, size_t line,
                  Column* column) {
  const std::string_view text =
      quoted && column->type() == ValueType::kString ? raw
                                                      : StripWhitespace(raw);
  if (text.empty()) {
    column->AppendNull();  // missing attribute
    return Status::OK();
  }
  switch (column->type()) {
    case ValueType::kString:
      column->AppendString(std::string(text));
      return Status::OK();
    case ValueType::kInt64: {
      QARM_ASSIGN_OR_RETURN(int64_t v, ParseInt64Cell(text, line));
      column->AppendInt64(v);
      return Status::OK();
    }
    case ValueType::kDouble: {
      QARM_ASSIGN_OR_RETURN(double v, ParseDoubleCell(text, line));
      column->AppendDouble(v);
      return Status::OK();
    }
  }
  return Status::Internal("unreachable");
}

Result<Table> ParseCsv(CsvRecordReader& in, const Schema& schema) {
  QARM_ASSIGN_OR_RETURN(bool has_header, in.Next());
  if (!has_header || in.IsBlank()) {
    return Status::InvalidArgument("empty CSV input");
  }
  const size_t num_fields = schema.num_attributes();
  if (in.num_fields() != num_fields) {
    return Status::InvalidArgument(
        StrFormat("header has %zu fields, schema has %zu attributes",
                  in.num_fields(), num_fields));
  }
  for (size_t i = 0; i < num_fields; ++i) {
    const std::string name(in.quoted(i) ? in.text(i)
                                        : StripWhitespace(in.text(i)));
    if (name != schema.attribute(i).name) {
      return Status::InvalidArgument(
          StrFormat("header field %zu is '%s', schema expects '%s'", i,
                    name.c_str(), schema.attribute(i).name.c_str()));
    }
  }

  Table table(schema);
  while (true) {
    QARM_ASSIGN_OR_RETURN(bool more, in.Next());
    if (!more) break;
    if (in.IsBlank()) continue;
    if (in.num_fields() != num_fields) {
      return Status::InvalidArgument(
          StrFormat("line %zu has %zu fields, expected %zu", in.line(),
                    in.num_fields(), num_fields));
    }
    for (size_t i = 0; i < num_fields; ++i) {
      QARM_RETURN_NOT_OK(AppendCell(in.text(i), in.quoted(i), in.line(),
                                    &table.mutable_column(i)));
    }
    table.EndRow();
  }
  return table;
}

}  // namespace

Result<Table> ReadCsv(const std::string& path, const Schema& schema) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::IOError("cannot open '" + path +
                           "' for reading: " + std::strerror(errno));
  }
  // Closes the file however the read ends.
  struct FdCloser {
    explicit FdCloser(int f) : fd(f) {}
    FdCloser(const FdCloser&) = delete;
    FdCloser& operator=(const FdCloser&) = delete;
    ~FdCloser() { ::close(fd); }
    const int fd;
  } closer(fd);
  const CsvReadFn read = [&](char* dst, size_t capacity) -> Result<size_t> {
    while (true) {
      const ssize_t n = ::read(fd, dst, capacity);
      if (n >= 0) return static_cast<size_t>(n);
      if (errno != EINTR) {
        return Status::IOError("cannot read '" + path +
                               "': " + std::strerror(errno));
      }
    }
  };
  return ReadCsvFrom(read, schema);
}

Result<Table> ReadCsvString(const std::string& text, const Schema& schema) {
  CsvRecordReader in{std::string_view(text)};
  return ParseCsv(in, schema);
}

Result<Table> ReadCsvFrom(const CsvReadFn& read, const Schema& schema) {
  CsvRecordReader in{&read};
  return ParseCsv(in, schema);
}

std::string CsvQuoteField(const std::string& s) {
  if (s.find_first_of(",\"\r\n") == std::string::npos) return s;
  std::string out = "\"";
  for (char c : s) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

std::string ToCsvString(const Table& table) {
  std::string out;
  const Schema& schema = table.schema();
  for (size_t i = 0; i < schema.num_attributes(); ++i) {
    if (i > 0) out += ',';
    out += CsvQuoteField(schema.attribute(i).name);
  }
  out += '\n';
  for (size_t r = 0; r < table.num_rows(); ++r) {
    for (size_t c = 0; c < table.num_columns(); ++c) {
      if (c > 0) out += ',';
      out += CsvQuoteField(table.Get(r, c).ToString());
    }
    out += '\n';
  }
  return out;
}

Status WriteCsv(const Table& table, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    return Status::IOError("cannot open '" + path + "' for writing");
  }
  out << ToCsvString(table);
  if (!out) {
    return Status::IOError("write to '" + path + "' failed");
  }
  return Status::OK();
}

}  // namespace qarm
