// Quantitative association rules (step 4 of the decomposition) and their
// rendering.
#ifndef QARM_CORE_RULES_H_
#define QARM_CORE_RULES_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/frequent_items.h"
#include "core/item.h"
#include "mining/rulegen.h"
#include "storage/rule_text.h"

namespace qarm {

// A rule X => Y over quantitative/categorical items.
struct QuantRule {
  RangeItemset antecedent;
  RangeItemset consequent;
  uint64_t count = 0;  // records supporting X ∪ Y
  double support = 0.0;
  double confidence = 0.0;
  // Set by the interest evaluator (true when no interest level is given).
  bool interesting = true;
  // Records supporting Y alone, the base of the rule's lift; 0 when Y is
  // not among the frequent itemsets.
  uint64_t consequent_count = 0;

  // X ∪ Y, attribute-sorted.
  RangeItemset UnionItemset() const;
};

// Generates all rules with confidence >= minconf from the frequent itemsets
// (ap-genrules over item ids, EmitRuleSplits) and decodes each straight
// into ranges. With `num_threads > 1` (0 = all hardware cores) both the
// per-itemset rule generation and the range decode fan out across a worker
// pool; the rules are identical, in the same order, at any thread count.
// `threads_used`, when non-null, receives the parallelism actually applied.
std::vector<QuantRule> GenerateQuantRules(
    const std::vector<FrequentItemset>& itemsets, const ItemCatalog& catalog,
    size_t num_records, double minconf, size_t num_threads = 1,
    size_t* threads_used = nullptr);

// "<Age: 20..29> and <Married: Yes> => <NumCars: 2> (support 40.0%,
//  confidence 100.0%)".
std::string RuleToString(const QuantRule& rule, const MappedTable& table);
// The same text into `sink`; `items` must hold the rule's items.
void AppendRuleText(const QuantRule& rule, const ItemTextTable& items,
                    RuleSink* sink);

}  // namespace qarm

#endif  // QARM_CORE_RULES_H_
