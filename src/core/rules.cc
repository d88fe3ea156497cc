#include "core/rules.h"

#include <algorithm>

#include "common/thread_pool.h"

namespace qarm {
namespace {

// Below this many rules the decode loop is cheaper than waking a pool.
constexpr size_t kMinParallelRules = 512;

}  // namespace

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
  std::vector<BooleanRule> raw =
      GenerateRules(itemsets, num_records, minconf, num_threads, threads_used);
  std::vector<QuantRule> rules(raw.size());
  // The decode of each rule is independent and index-addressed, so sharding
  // the index range changes nothing about the output.
  auto decode_range = [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      const BooleanRule& r = raw[i];
      QuantRule& rule = rules[i];
      rule.antecedent = catalog.Decode(r.antecedent);
      rule.consequent = catalog.Decode(r.consequent);
      rule.count = r.count;
      rule.support = r.support;
      rule.confidence = r.confidence;
    }
  };
  const size_t threads =
      raw.size() >= kMinParallelRules ? ResolveNumThreads(num_threads) : 1;
  if (threads <= 1) {
    decode_range(0, raw.size());
  } else {
    const std::vector<IndexRange> shards = SplitRange(raw.size(), threads);
    ThreadPool pool(threads);
    pool.ParallelFor(shards.size(), [&](size_t s) {
      decode_range(shards[s].begin, shards[s].end);
    });
    if (threads_used != nullptr) *threads_used = std::max(*threads_used, threads);
  }
  return rules;
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
