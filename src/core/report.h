// Every output format of a mining result: JSON, CSV and the CLI's text
// lines, for piping qarm output into downstream tooling. Each Write*
// function streams into a RuleSink (storage/rule_text.h), rendering each
// distinct item once; the std::string functions are wrappers over an
// in-memory sink. No external dependencies; the JSON is hand-emitted and
// escaped.
#ifndef QARM_CORE_REPORT_H_
#define QARM_CORE_REPORT_H_

#include <cstddef>
#include <string>
#include <vector>

#include "core/miner.h"
#include "core/rules.h"
#include "storage/rule_text.h"

namespace qarm {

// One rule as a JSON object:
//   {"antecedent":[{"attribute":"Age","kind":"quantitative",
//                   "lo":23,"hi":29,"display":"23..29"}, ...],
//    "consequent":[...],
//    "support":0.600000,"confidence":1.000000,"count":3,"interesting":true}
// For quantitative items lo/hi are the raw bounds; for categorical items
// they are omitted and "value" carries the label (taxonomy interior nodes
// report the node name).
std::string RuleToJson(const QuantRule& rule, const MappedTable& mapped);

// The whole result: {"stats":{..},"rules":[..]}.
// With `interesting_only`, rules not flagged interesting are skipped.
std::string MiningResultToJson(const MiningResult& result,
                               bool interesting_only = false);

// Run statistics as a JSON object.
std::string StatsToJson(const MiningStats& stats);

// Rules as CSV: antecedent,consequent,support,confidence,count,interesting.
// Sides are rendered with the human-readable item syntax; a side holding a
// comma, a quote or a newline is double-quoted, with quotes doubled.
std::string RulesToCsv(const std::vector<QuantRule>& rules,
                       const MappedTable& mapped);

// The streaming forms. Each skips rules not flagged interesting when
// `interesting_only` and returns the number of rules written.
//
// MiningResultToJson's bytes.
size_t WriteMiningResultJson(const MiningResult& result, bool interesting_only,
                             RuleSink* sink);
// RulesToCsv's bytes, header included.
size_t WriteRulesCsv(const std::vector<QuantRule>& rules,
                     const MappedTable& mapped, bool interesting_only,
                     RuleSink* sink);
// One RuleToString line per rule; with `mark_interesting`, interesting
// rules end in "  [interesting]".
size_t WriteRulesText(const std::vector<QuantRule>& rules,
                      const MappedTable& mapped, bool interesting_only,
                      bool mark_interesting, RuleSink* sink);

// "# N frequent itemsets", one "<items>  (support S%)" line per itemset,
// then a blank line.
void WriteItemsetsText(const std::vector<FrequentRangeItemset>& itemsets,
                       const MappedTable& mapped, RuleSink* sink);

}  // namespace qarm

#endif  // QARM_CORE_REPORT_H_
