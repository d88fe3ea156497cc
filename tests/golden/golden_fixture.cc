// Writes the rendering golden fixture into OUT_DIR:
//
//   fixture.qbt  a 60-row mapped table the CLI mines with --input-qbt;
//   fixture.qrs  a handmade rule set for `qarm rules dump` and serving;
//   serve-match.json, serve-topk.json, serve-rules.json
//                one uncached RuleService response per query endpoint,
//                served from fixture.qrs as `qarm serve` would.
//
// The attributes cover every rendering edge: labels holding a comma, a
// double quote, a backslash, a newline and a control byte (in an attribute
// whose name needs JSON escaping too), a taxonomy with interior nodes, a
// box-difference leaf list ("south|east") that only a rule file can
// carry, and a double-typed quantitative attribute whose values exercise
// the trailing-zero trim. render_golden.cmake compares every output with
// the files in tests/golden/.
//
// Usage: qarm_golden_fixture OUT_DIR
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "partition/mapped_table.h"
#include "serve/rule_catalog.h"
#include "serve/rule_service.h"
#include "storage/qbt_writer.h"
#include "storage/rules_format.h"

namespace qarm {
namespace {

constexpr size_t kRows = 60;

std::vector<MappedAttribute> FixtureAttributes() {
  MappedAttribute age;
  age.name = "age";
  age.kind = AttributeKind::kQuantitative;
  age.source_type = ValueType::kInt64;
  age.partitioned = true;
  age.intervals = {{20, 24}, {25, 29}, {30, 39}, {40, 59}};

  MappedAttribute ratio;
  ratio.name = "ratio";
  ratio.kind = AttributeKind::kQuantitative;
  ratio.source_type = ValueType::kDouble;
  ratio.intervals = {{1e-7, 1e-7}, {0.1, 0.1}, {2.5, 2.5},
                     {3.14159265, 3.14159265}};

  MappedAttribute tag;
  tag.name = "tag \"x\"";
  tag.labels = {"a,b", "say \"hi\"", "back\\slash", "line\nbreak",
                std::string("ctl\x01x")};

  MappedAttribute region;
  region.name = "region";
  region.labels = {"north", "south", "east", "west"};
  region.taxonomy_ranges = {{"coast, wet", 0, 1}, {"inland", 2, 3}};
  return {age, ratio, tag, region};
}

// Deterministic rows with enough correlation between the attributes that
// render_golden.cmake's mine yields 136 rules, 100 of them interesting at
// interest level 1.1, with every label and the taxonomy nodes in them.
MappedTable FixtureTable() {
  MappedTable table(FixtureAttributes(), kRows);
  for (size_t r = 0; r < kRows; ++r) {
    const int32_t region = static_cast<int32_t>(r % 4);
    table.set_value(r, 0, static_cast<int32_t>((r / 4) % 4));
    table.set_value(r, 1, region < 2 ? static_cast<int32_t>(r % 2)
                                     : static_cast<int32_t>(2 + r % 2));
    table.set_value(r, 2, region < 2 ? static_cast<int32_t>(r % 3)
                                     : static_cast<int32_t>(3 + r % 2));
    table.set_value(r, 3, region);
  }
  return table;
}

// Handmade rules: every item form (partitioned range, double value,
// special label, taxonomy node, leaf list), lift both 0 and > 0, and both
// interest flags.
StoredRuleSet FixtureRuleSet() {
  StoredRuleSet set;
  set.attributes = FixtureAttributes();
  set.num_records = kRows;
  set.minsup = 0.1;
  set.minconf = 0.5;
  set.interest_level = 1.1;
  set.rules = {
      {{{0, 1, 2}, {3, 0, 1}}, {{2, 1, 1}}, 12, 0.2, 0.75, 1.5, true},
      {{{3, 1, 2}}, {{1, 0, 0}}, 9, 0.15, 0.5625, 0.0, false},
      {{{2, 3, 3}}, {{1, 2, 3}}, 15, 0.25, 1.0, 2.25, true},
      {{{1, 1, 1}}, {{2, 4, 4}, {3, 3, 3}}, 7, 7.0 / 60, 0.7, 1.125, true},
      {{{1, 2, 2}, {2, 0, 0}}, {{0, 0, 3}}, 8, 8.0 / 60, 1.0, 1.0, false},
      {{{2, 2, 2}}, {{3, 2, 3}}, 10, 1.0 / 6, 0.8333333, 1.6666667, true},
  };
  return set;
}

int Fail(const std::string& what, const Status& status) {
  std::fprintf(stderr, "%s: %s\n", what.c_str(), status.ToString().c_str());
  return 1;
}

int Run(const std::string& dir) {
  Status status = WriteQbt(FixtureTable(), dir + "/fixture.qbt");
  if (!status.ok()) return Fail("write fixture.qbt", status);
  const std::string qrs = dir + "/fixture.qrs";
  status = WriteRuleSet(FixtureRuleSet(), qrs);
  if (!status.ok()) return Fail("write fixture.qrs", status);

  auto catalog = RuleCatalog::Load(qrs);
  if (!catalog.ok()) return Fail("load fixture.qrs", catalog.status());
  RuleServiceOptions options;
  options.cache_bytes = 0;
  RuleService service(*catalog, options);
  const std::vector<std::pair<std::string, HttpRequest>> queries = {
      {"serve-match.json",
       {"GET",
        "/match",
        {{"age", "27"},
         {"ratio", "2.5"},
         {"tag \"x\"", "line\nbreak"},
         {"region", "south"},
         {"mode", "antecedent"},
         {"limit", "2"}}}},
      {"serve-topk.json", {"GET", "/topk", {{"metric", "lift"}, {"k", "4"}}}},
      {"serve-rules.json",
       {"GET", "/rules", {{"offset", "1"}, {"limit", "4"}}}},
  };
  for (const auto& [name, request] : queries) {
    const HttpResponse response = service.Handle(request);
    if (response.status != 200) {
      std::fprintf(stderr, "%s: HTTP %d %s\n", request.path.c_str(),
                   response.status, response.body.c_str());
      return 1;
    }
    const std::string path = dir + "/" + name;
    std::FILE* f = std::fopen(path.c_str(), "wb");
    const bool written =
        f != nullptr &&
        std::fwrite(response.body.data(), 1, response.body.size(), f) ==
            response.body.size();
    if (f != nullptr && std::fclose(f) != 0) f = nullptr;
    if (!written || f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return 1;
    }
  }
  return 0;
}

}  // namespace
}  // namespace qarm

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: qarm_golden_fixture OUT_DIR\n");
    return 2;
  }
  return qarm::Run(argv[1]);
}
