#include "core/rules.h"

#include <algorithm>

namespace qarm {

RangeItemset QuantRule::UnionItemset() const {
  RangeItemset all = antecedent;
  all.insert(all.end(), consequent.begin(), consequent.end());
  std::sort(all.begin(), all.end());
  return all;
}

std::vector<QuantRule> GenerateQuantRules(
    const std::vector<FrequentItemset>& itemsets, const ItemCatalog& catalog,
    size_t num_records, double minconf, size_t num_threads,
    size_t* threads_used) {
  return GenerateRulesAs<QuantRule>(
      itemsets, num_records, minconf, num_threads, threads_used,
      [&](int32_t id) { return catalog.item(id); });
}

std::string RuleToString(const QuantRule& rule, const MappedTable& table) {
  ItemTextTable items(table.attributes());
  items.AddRule(rule);
  RuleSink sink;
  AppendRuleText(rule, items, &sink);
  return sink.TakeString();
}

void AppendRuleText(const QuantRule& rule, const ItemTextTable& items,
                    RuleSink* sink) {
  sink->AppendTextSide(rule.antecedent, items);
  sink->Append(" => ");
  sink->AppendTextSide(rule.consequent, items);
  sink->Append(" (support ");
  sink->AppendFixed(rule.support * 100.0, 1);
  sink->Append("%, confidence ");
  sink->AppendFixed(rule.confidence * 100.0, 1);
  sink->Append("%)");
}

}  // namespace qarm
