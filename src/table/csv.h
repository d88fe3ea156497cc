// CSV import/export for relational tables. The reader is schema-driven:
// the caller declares each attribute's kind and type, the file's header is
// validated against the schema.
#ifndef QARM_TABLE_CSV_H_
#define QARM_TABLE_CSV_H_

#include <cstddef>
#include <functional>
#include <string>

#include "common/status.h"
#include "table/table.h"

namespace qarm {

// Bytes the chunked reader asks for per read. A record longer than this
// grows the buffer to fit it; nothing else does, so the reader's memory
// does not grow with the input.
inline constexpr size_t kCsvReadBufferBytes = size_t{64} << 10;

// Pulls the next bytes of a CSV input into `dst` (at most `capacity`) and
// returns how many it wrote; 0 means end of input.
using CsvReadFn = std::function<Result<size_t>(char* dst, size_t capacity)>;

// Parses a CSV file (comma separated, first line is the header) into a
// table with the given schema. RFC 4180 quoting is supported: a
// double-quoted field may contain commas, newlines, and escaped quotes
// (""); quoted strings are taken verbatim, unquoted fields are trimmed.
// Numeric fields must parse fully; an empty field is a missing value
// (NULL). Parse errors carry the 1-based line number of the offending
// record. The file is read in kCsvReadBufferBytes chunks; a path that
// cannot be opened or read (a directory, an I/O error partway through) is
// an IOError naming the path and the reason.
Result<Table> ReadCsv(const std::string& path, const Schema& schema);

// Parses CSV from an in-memory string (same format as ReadCsv).
Result<Table> ReadCsvString(const std::string& text, const Schema& schema);

// Parses CSV pulled chunk by chunk through `read` (same format as ReadCsv);
// a failed read ends the parse with its status.
Result<Table> ReadCsvFrom(const CsvReadFn& read, const Schema& schema);

// Writes `table` as CSV (header + rows) to `path`. Fields containing a
// comma, quote, or newline are double-quoted with "" escapes, so the
// output always reads back losslessly.
Status WriteCsv(const Table& table, const std::string& path);

// Renders `table` as a CSV string (same quoting as WriteCsv).
std::string ToCsvString(const Table& table);

// Quotes one CSV field if needed (exposed for streaming writers).
std::string CsvQuoteField(const std::string& s);

}  // namespace qarm

#endif  // QARM_TABLE_CSV_H_
