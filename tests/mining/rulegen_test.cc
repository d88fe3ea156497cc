#include "mining/rulegen.h"

#include <algorithm>
#include <map>
#include <utility>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/frequent_items.h"
#include "core/options.h"
#include "core/rules.h"
#include "testutil.h"

namespace qarm {
namespace {

std::vector<BooleanRule> SortedRules(std::vector<BooleanRule> rules) {
  std::sort(rules.begin(), rules.end(),
            [](const BooleanRule& a, const BooleanRule& b) {
              if (a.antecedent != b.antecedent) {
                return a.antecedent < b.antecedent;
              }
              return a.consequent < b.consequent;
            });
  return rules;
}

TEST(RulegenTest, SimplePair) {
  // sup({1}) = 4, sup({2}) = 2, sup({1,2}) = 2 over 4 transactions.
  std::vector<FrequentItemset> itemsets = {
      {{1}, 4}, {{2}, 2}, {{1, 2}, 2}};
  auto rules = SortedRules(GenerateRules(itemsets, 4, 0.6));
  // 1 => 2 has confidence 0.5 (fails); 2 => 1 has confidence 1.0.
  ASSERT_EQ(rules.size(), 1u);
  EXPECT_EQ(rules[0].antecedent, (std::vector<int32_t>{2}));
  EXPECT_EQ(rules[0].consequent, (std::vector<int32_t>{1}));
  EXPECT_DOUBLE_EQ(rules[0].confidence, 1.0);
  EXPECT_DOUBLE_EQ(rules[0].support, 0.5);
}

TEST(RulegenTest, MinconfZeroEmitsAllSplits) {
  std::vector<FrequentItemset> itemsets = {
      {{1}, 3}, {{2}, 3}, {{3}, 3}, {{1, 2}, 2}, {{1, 3}, 2}, {{2, 3}, 2},
      {{1, 2, 3}, 2}};
  auto rules = GenerateRules(itemsets, 4, 0.0);
  // For {1,2}: 2 rules; {1,3}: 2; {2,3}: 2; {1,2,3}: 6 (three 1-item
  // consequents + three 2-item consequents).
  EXPECT_EQ(rules.size(), 12u);
}

TEST(RulegenTest, ConfidencePruningIsAntiMonotone) {
  // If 1,2 => 3 fails minconf then 1 => 2,3 must not appear either (its
  // antecedent support can only be larger).
  std::vector<FrequentItemset> itemsets = {
      {{1}, 10}, {{2}, 8}, {{3}, 4},
      {{1, 2}, 8}, {{1, 3}, 4}, {{2, 3}, 4}, {{1, 2, 3}, 4}};
  auto rules = GenerateRules(itemsets, 10, 0.6);
  for (const BooleanRule& r : rules) {
    EXPECT_GE(r.confidence + 1e-12, 0.6);
  }
  // {1,2} => {3}: 4/8 = 0.5 fails; {1} => {2,3}: 4/10 fails. Both absent.
  for (const BooleanRule& r : rules) {
    bool is_12_3 = r.antecedent == std::vector<int32_t>{1, 2} &&
                   r.consequent == std::vector<int32_t>{3};
    bool is_1_23 = r.antecedent == std::vector<int32_t>{1} &&
                   r.consequent == std::vector<int32_t>{2, 3};
    EXPECT_FALSE(is_12_3);
    EXPECT_FALSE(is_1_23);
  }
}

TEST(RulegenTest, NoRulesFromSingletons) {
  std::vector<FrequentItemset> itemsets = {{{1}, 5}, {{2}, 3}};
  EXPECT_TRUE(GenerateRules(itemsets, 10, 0.1).empty());
}

TEST(RulegenTest, RuleMetricsConsistent) {
  Rng rng(3);
  std::vector<Transaction> txns;
  for (int t = 0; t < 200; ++t) {
    Transaction txn;
    for (int32_t item = 0; item < 8; ++item) {
      if (rng.Bernoulli(0.4)) txn.push_back(item);
    }
    txns.push_back(std::move(txn));
  }
  auto frequent = testutil::BruteForceFrequent(txns, 0.1, 8);
  auto rules = GenerateRules(frequent, txns.size(), 0.5);
  ASSERT_FALSE(rules.empty());
  for (const BooleanRule& r : rules) {
    // Recompute support and confidence by brute force.
    std::vector<int32_t> full = r.antecedent;
    full.insert(full.end(), r.consequent.begin(), r.consequent.end());
    std::sort(full.begin(), full.end());
    uint64_t full_count = 0, ante_count = 0;
    for (const Transaction& t : txns) {
      if (std::includes(t.begin(), t.end(), full.begin(), full.end())) {
        ++full_count;
      }
      if (std::includes(t.begin(), t.end(), r.antecedent.begin(),
                        r.antecedent.end())) {
        ++ante_count;
      }
    }
    EXPECT_EQ(r.count, full_count);
    EXPECT_DOUBLE_EQ(r.support, static_cast<double>(full_count) / 200.0);
    EXPECT_DOUBLE_EQ(
        r.confidence,
        static_cast<double>(full_count) / static_cast<double>(ante_count));
    // Antecedent and consequent are disjoint and non-empty.
    EXPECT_FALSE(r.antecedent.empty());
    EXPECT_FALSE(r.consequent.empty());
    std::vector<int32_t> inter;
    std::set_intersection(r.antecedent.begin(), r.antecedent.end(),
                          r.consequent.begin(), r.consequent.end(),
                          std::back_inserter(inter));
    EXPECT_TRUE(inter.empty());
  }
}

TEST(RulegenTest, CompleteEnumeration) {
  // Every valid (antecedent, consequent) split above minconf must appear.
  std::vector<Transaction> txns = {
      {1, 2, 3}, {1, 2, 3}, {1, 2}, {2, 3}, {1, 3}, {1, 2, 3}};
  auto frequent = testutil::BruteForceFrequent(txns, 0.3, 4);
  auto rules = GenerateRules(frequent, txns.size(), 0.0);
  // Brute-force enumeration of all splits of all frequent itemsets.
  size_t expected = 0;
  for (const FrequentItemset& f : frequent) {
    if (f.items.size() < 2) continue;
    expected += (1u << f.items.size()) - 2;  // non-empty proper subsets
  }
  EXPECT_EQ(rules.size(), expected);
}

// A rule as the reference model enumerates it.
struct ReferenceRule {
  std::vector<int32_t> antecedent;
  std::vector<int32_t> consequent;
  uint64_t count = 0;
  double support = 0.0;
  double confidence = 0.0;
  uint64_t consequent_count = 0;
};

// Brute-force rule generation: for each itemset in input order, every
// non-empty proper subset as the consequent, by size and then
// lexicographically, kept when its confidence passes minconf. The counts of
// a family mined from real transactions shrink under supersets, so this is
// exactly the set ap-genrules reaches by growing consequents.
std::vector<ReferenceRule> ReferenceRules(
    const std::vector<FrequentItemset>& itemsets, size_t n, double minconf) {
  std::map<std::vector<int32_t>, uint64_t> count_of;
  for (const FrequentItemset& f : itemsets) count_of[f.items] = f.count;
  std::vector<ReferenceRule> rules;
  for (const FrequentItemset& f : itemsets) {
    const size_t k = f.items.size();
    std::vector<std::pair<std::vector<int32_t>, std::vector<int32_t>>> splits;
    for (uint32_t mask = 1; k >= 2 && mask + 1 < (1u << k); ++mask) {
      std::vector<int32_t> antecedent, consequent;
      for (size_t i = 0; i < k; ++i) {
        ((mask >> i) & 1 ? consequent : antecedent).push_back(f.items[i]);
      }
      splits.emplace_back(std::move(antecedent), std::move(consequent));
    }
    std::sort(splits.begin(), splits.end(),
              [](const auto& a, const auto& b) {
                if (a.second.size() != b.second.size()) {
                  return a.second.size() < b.second.size();
                }
                return a.second < b.second;
              });
    for (auto& [antecedent, consequent] : splits) {
      const double confidence = static_cast<double>(f.count) /
                                static_cast<double>(count_of.at(antecedent));
      if (confidence + 1e-12 < minconf) continue;
      ReferenceRule rule;
      rule.consequent_count = count_of.at(consequent);
      rule.antecedent = std::move(antecedent);
      rule.consequent = std::move(consequent);
      rule.count = f.count;
      rule.support = static_cast<double>(f.count) / static_cast<double>(n);
      rule.confidence = confidence;
      rules.push_back(std::move(rule));
    }
  }
  return rules;
}

// A downward-closed family with consistent counts: every itemset of up to
// six items frequent in seeded random transactions, shuffled on odd seeds
// so rule order must follow input order, not size order.
std::vector<FrequentItemset> RandomFamily(uint64_t seed, int32_t num_items,
                                          size_t num_transactions) {
  Rng rng(seed);
  std::vector<Transaction> transactions(num_transactions);
  for (Transaction& t : transactions) {
    for (int32_t item = 0; item < num_items; ++item) {
      if (rng.Bernoulli(0.45 + 0.07 * (item % 5))) t.push_back(item);
    }
  }
  std::vector<FrequentItemset> family =
      testutil::BruteForceFrequent(transactions, 0.08, /*max_size=*/6);
  if (seed % 2 == 1) {
    for (size_t i = family.size(); i > 1; --i) {
      std::swap(family[i - 1],
                family[static_cast<size_t>(rng.UniformInt(
                    0, static_cast<int64_t>(i) - 1))]);
    }
  }
  return family;
}

TEST(RulegenReferenceTest, MatchesBruteForce) {
  constexpr int32_t kItems = 10;
  constexpr size_t kTransactions = 120;
  // One categorical attribute whose values are all frequent: item id i is
  // the catalog's i-th item, so GenerateQuantRules decodes every id.
  std::vector<std::vector<int32_t>> rows;
  std::vector<std::string> labels;
  for (int32_t v = 0; v < kItems; ++v) {
    labels.push_back("v" + std::to_string(v));
    rows.push_back({v});
  }
  const MappedTable table =
      testutil::MakeMappedTable({testutil::CatAttr("a", labels)}, rows);
  MinerOptions options;
  options.minsup = 0.05;
  const ItemCatalog catalog = ItemCatalog::Build(table, options);
  ASSERT_EQ(catalog.num_items(), static_cast<size_t>(kItems));

  bool sharded = false;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    const std::vector<FrequentItemset> family =
        RandomFamily(seed, kItems, kTransactions);
    sharded = sharded || family.size() >= 128;
    for (double minconf : {0.0, 0.5, 1.0}) {
      const std::vector<ReferenceRule> expected =
          ReferenceRules(family, kTransactions, minconf);
      for (size_t threads : {size_t{1}, size_t{4}}) {
        SCOPED_TRACE(testing::Message() << "seed " << seed << " minconf "
                                        << minconf << " threads " << threads);
        const std::vector<BooleanRule> rules =
            GenerateRules(family, kTransactions, minconf, threads);
        const std::vector<QuantRule> quant = GenerateQuantRules(
            family, catalog, kTransactions, minconf, threads);
        ASSERT_EQ(rules.size(), expected.size());
        ASSERT_EQ(quant.size(), expected.size());
        for (size_t i = 0; i < expected.size(); ++i) {
          const ReferenceRule& want = expected[i];
          EXPECT_EQ(rules[i].antecedent, want.antecedent) << "rule " << i;
          EXPECT_EQ(rules[i].consequent, want.consequent) << "rule " << i;
          EXPECT_EQ(rules[i].count, want.count) << "rule " << i;
          EXPECT_EQ(rules[i].support, want.support) << "rule " << i;
          EXPECT_EQ(rules[i].confidence, want.confidence) << "rule " << i;
          EXPECT_EQ(rules[i].consequent_count, want.consequent_count)
              << "rule " << i;
          EXPECT_EQ(quant[i].antecedent, catalog.Decode(want.antecedent))
              << "rule " << i;
          EXPECT_EQ(quant[i].consequent, catalog.Decode(want.consequent))
              << "rule " << i;
          EXPECT_EQ(quant[i].count, want.count) << "rule " << i;
          EXPECT_EQ(quant[i].support, want.support) << "rule " << i;
          EXPECT_EQ(quant[i].confidence, want.confidence) << "rule " << i;
          EXPECT_EQ(quant[i].consequent_count, want.consequent_count)
              << "rule " << i;
        }
      }
    }
  }
  EXPECT_TRUE(sharded) << "no family reached the parallel cutoff";
}

}  // namespace
}  // namespace qarm
