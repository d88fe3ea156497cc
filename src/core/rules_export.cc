#include "core/rules_export.h"

#include <utility>
#include <vector>

namespace qarm {
namespace {

std::vector<StoredItem> ToStoredItems(const RangeItemset& side) {
  std::vector<StoredItem> items;
  items.reserve(side.size());
  for (const RangeItem& item : side) {
    items.push_back(StoredItem{item.attr, item.lo, item.hi});
  }
  return items;
}

}  // namespace

StoredRuleSet ExportRuleSet(const MiningResult& result,
                            const MinerOptions& options) {
  StoredRuleSet set;
  set.attributes = result.mapped.attributes();
  set.num_records = result.stats.num_records;
  set.minsup = options.minsup;
  set.minconf = options.minconf;
  set.interest_level = options.interest_level;

  // Lift divides by the consequent's support, count / n as the miner
  // computes it; rulegen carries the count on the rule.
  const double n = static_cast<double>(set.num_records);
  set.rules.reserve(result.rules.size());
  for (const QuantRule& rule : result.rules) {
    StoredRule stored;
    stored.antecedent = ToStoredItems(rule.antecedent);
    stored.consequent = ToStoredItems(rule.consequent);
    stored.count = rule.count;
    stored.support = rule.support;
    stored.confidence = rule.confidence;
    stored.interesting = rule.interesting;
    if (rule.consequent_count > 0 && n > 0) {
      stored.lift =
          rule.confidence / (static_cast<double>(rule.consequent_count) / n);
    }
    set.rules.push_back(std::move(stored));
  }
  return set;
}

}  // namespace qarm
