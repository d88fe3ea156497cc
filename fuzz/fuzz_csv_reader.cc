// Fuzz harness for the CSV ingestion path: the first input line is a
// schema spec, the rest is the CSV text parsed against it — so one input
// mutates both the schema and the data it must match. When the table
// parses, it is also pushed through MapTable (the `qarm convert`
// partition/map step), covering the full untrusted CSV -> MappedTable
// pipeline, and then through MapTableWithAttributes under the attributes
// MapTable produced (the `qarm append` path), which must map every row it
// was derived from. Property: never crash, abort, or OOM; all defects come
// back as Status.
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <string>

#include "partition/mapper.h"
#include "table/csv.h"
#include "table/schema.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  std::string input(reinterpret_cast<const char*>(data), size);
  size_t newline = input.find('\n');
  if (newline == std::string::npos) return 0;

  auto schema = qarm::Schema::Parse(input.substr(0, newline));
  if (!schema.ok()) return 0;
  auto table = qarm::ReadCsvString(input.substr(newline + 1), *schema);
  if (!table.ok()) return 0;

  qarm::MapOptions options;
  options.minsup = 0.25;
  options.partial_completeness = 1.5;
  auto mapped = qarm::MapTable(*table, options);
  if (!mapped.ok()) return 0;
  auto again = qarm::MapTableWithAttributes(*table, mapped->attributes());
  if (!again.ok()) std::abort();
  return 0;
}
