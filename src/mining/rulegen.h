// Rule generation from frequent itemsets — the ap-genrules procedure of
// [AS94], used by step 4 of the paper's problem decomposition. Works on any
// itemsets given as sorted integer vectors, so the quantitative miner reuses
// it after encoding its <attribute, range> items as integers.
#ifndef QARM_MINING_RULEGEN_H_
#define QARM_MINING_RULEGEN_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "mining/apriori.h"

namespace qarm {

// An association rule over integer item ids.
struct BooleanRule {
  std::vector<int32_t> antecedent;  // sorted
  std::vector<int32_t> consequent;  // sorted
  uint64_t count = 0;               // absolute support of antecedent+consequent
  double support = 0.0;             // fraction of transactions
  double confidence = 0.0;
  // Absolute support of the consequent alone; 0 when the consequent is not
  // among the frequent itemsets.
  uint64_t consequent_count = 0;

  bool operator==(const BooleanRule& other) const {
    return antecedent == other.antecedent && consequent == other.consequent;
  }
};

// One rule X => Y as ap-genrules finds it, before any decoding: the
// frequent itemset X ∪ Y, the positions of Y within it, and the support
// counts the rule's measures derive from.
struct RuleSplit {
  uint32_t itemset = 0;  // index into the frequent-itemset vector
  // Bit i set: the itemset's items[i] is in the consequent; every other
  // item is in the antecedent.
  uint64_t consequent = 0;
  uint64_t antecedent_count = 0;
  uint64_t consequent_count = 0;  // 0 when Y is not a frequent itemset
};

// The emitter every rule type is built from. Finds every rule X => Y with
// X ∪ Y frequent, X ∩ Y = ∅, both sides non-empty and confidence >=
// minconf, and hands each to `decode(split, rule_index)` after calling
// `allocate(num_rules)` once. `itemsets` must contain every frequent
// itemset together with all of its subsets (Apriori guarantees this), no
// itemset twice, and no itemset of more than 64 items.
//
// Rule order: itemsets in input order; within an itemset, consequents by
// size, then lexicographically by item. Rule generation is independent per
// itemset, so `num_threads > 1` (0 = all hardware cores) fans itemset
// chunks out across a worker pool and decodes each chunk's rules into
// their final indices on the same pool; the order above holds at any thread
// count. `threads_used`, when non-null, receives the parallelism actually
// applied (1 when the input was too small to shard).
void EmitRuleSplits(
    const std::vector<FrequentItemset>& itemsets, double minconf,
    size_t num_threads, size_t* threads_used,
    const std::function<void(size_t num_rules)>& allocate,
    const std::function<void(const RuleSplit& split, size_t rule_index)>&
        decode);

// Every rule of EmitRuleSplits as a `Rule` (BooleanRule, QuantRule): each
// side holds decode_item(id) for its item ids, in item order, and the
// measures derive from the split's counts, with `num_transactions`
// converting counts to support fractions.
template <typename Rule, typename DecodeItem>
std::vector<Rule> GenerateRulesAs(
    const std::vector<FrequentItemset>& itemsets, size_t num_transactions,
    double minconf, size_t num_threads, size_t* threads_used,
    const DecodeItem& decode_item) {
  const double n = static_cast<double>(num_transactions);
  std::vector<Rule> rules;
  EmitRuleSplits(
      itemsets, minconf, num_threads, threads_used,
      [&](size_t num_rules) { rules.resize(num_rules); },
      [&](const RuleSplit& split, size_t rule_index) {
        const std::vector<int32_t>& items = itemsets[split.itemset].items;
        const uint64_t count = itemsets[split.itemset].count;
        Rule& rule = rules[rule_index];
        const size_t consequent_size =
            static_cast<size_t>(__builtin_popcountll(split.consequent));
        rule.antecedent.reserve(items.size() - consequent_size);
        rule.consequent.reserve(consequent_size);
        for (size_t i = 0; i < items.size(); ++i) {
          ((split.consequent >> i) & 1 ? rule.consequent : rule.antecedent)
              .push_back(decode_item(items[i]));
        }
        rule.count = count;
        rule.support = static_cast<double>(count) / n;
        rule.confidence = static_cast<double>(count) /
                          static_cast<double>(split.antecedent_count);
        rule.consequent_count = split.consequent_count;
      });
  return rules;
}

// Every rule of EmitRuleSplits as a BooleanRule over the item ids.
std::vector<BooleanRule> GenerateRules(
    const std::vector<FrequentItemset>& itemsets, size_t num_transactions,
    double minconf, size_t num_threads = 1, size_t* threads_used = nullptr);

}  // namespace qarm

#endif  // QARM_MINING_RULEGEN_H_
