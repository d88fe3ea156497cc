// Determinism of the parallel post-counting pipeline: candidate generation,
// rule generation (boolean and decoded), and interest evaluation must
// produce byte-identical output at any thread count — on tables with
// taxonomies and missing values — and the volume-ordered close-ancestor
// filter must agree with the all-pairs reference.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "common/hash.h"
#include "common/random.h"
#include "core/apriori_quant.h"
#include "core/candidate_gen.h"
#include "core/frequent_items.h"
#include "core/interest.h"
#include "core/miner.h"
#include "core/report.h"
#include "core/rules.h"
#include "core/support_counting.h"
#include "mining/rulegen.h"
#include "testutil.h"

namespace qarm {
namespace {

using testutil::CatAttr;
using testutil::MakeMappedTable;
using testutil::QuantAttr;

MappedAttribute TaxonomyAttr(const std::string& name,
                             std::vector<std::string> leaves,
                             std::vector<Taxonomy::NodeRange> ranges) {
  MappedAttribute attr = CatAttr(name, std::move(leaves));
  attr.taxonomy_ranges = std::move(ranges);
  return attr;
}

// Rows over {quant(12), taxonomized cat(4), plain cat(3), quant(9),
// plain cat(2)} with a sprinkle of missing values in every attribute —
// the same shape the parallel-counting tests use, so the pipeline sees
// taxonomies, ranges, and missing values at once.
MappedTable MixedTable(uint64_t seed, size_t num_rows) {
  Rng rng(seed);
  std::vector<std::vector<int32_t>> rows;
  for (size_t r = 0; r < num_rows; ++r) {
    std::vector<int32_t> row = {
        static_cast<int32_t>(rng.UniformInt(0, 11)),
        static_cast<int32_t>(rng.UniformInt(0, 3)),
        static_cast<int32_t>(rng.UniformInt(0, 2)),
        static_cast<int32_t>(rng.UniformInt(0, 8)),
        static_cast<int32_t>(rng.UniformInt(0, 1))};
    for (size_t a = 0; a < row.size(); ++a) {
      if (rng.UniformInt(0, 19) == 0) row[a] = kMissingValue;
    }
    rows.push_back(std::move(row));
  }
  return MakeMappedTable(
      {QuantAttr("balance", 12),
       TaxonomyAttr("region", {"north", "south", "east", "west"},
                    {{"any", 0, 3}, {"vertical", 0, 1}}),
       CatAttr("status", {"single", "married", "divorced"}),
       QuantAttr("age", 9), CatAttr("employed", {"yes", "no"})},
      rows);
}

// Wide quantitative domains at a permissive support range: the catalog emits
// hundreds of range items, enough to push candidate generation past its
// serial cutoff.
MappedTable WideQuantTable(uint64_t seed, size_t num_rows) {
  Rng rng(seed);
  std::vector<std::vector<int32_t>> rows;
  for (size_t r = 0; r < num_rows; ++r) {
    rows.push_back({static_cast<int32_t>(rng.UniformInt(0, 15)),
                    static_cast<int32_t>(rng.UniformInt(0, 15)),
                    static_cast<int32_t>(rng.UniformInt(0, 15))});
  }
  return MakeMappedTable(
      {QuantAttr("x", 16), QuantAttr("y", 16), QuantAttr("z", 16)}, rows);
}

std::vector<std::vector<int32_t>> ToVectors(const ItemsetSet& set) {
  std::vector<std::vector<int32_t>> out;
  out.reserve(set.size());
  for (size_t i = 0; i < set.size(); ++i) out.push_back(set.itemset_vector(i));
  return out;
}

class RulePipelineTest : public ::testing::TestWithParam<int> {};

TEST_P(RulePipelineTest, CandidatesMatchSerialEveryLevel) {
  const size_t num_threads = static_cast<size_t>(GetParam());
  MappedTable table = MixedTable(/*seed=*/17, /*num_rows=*/1200);
  MinerOptions options;
  options.minsup = 0.08;
  options.max_support = 0.7;
  options.num_threads = 1;
  ItemCatalog catalog = ItemCatalog::Build(table, options);
  FrequentItemsetResult mined = MineFrequentItemsets(table, catalog, options);

  // Rebuild L_{k-1} per level from the mined itemsets and compare the next
  // level's candidates serial vs parallel (prune included for k >= 3).
  std::map<size_t, ItemsetSet> levels;
  for (const FrequentItemset& f : mined.itemsets) {
    levels.try_emplace(f.items.size(), f.items.size())
        .first->second.AppendVector(f.items);
  }
  ASSERT_GE(levels.size(), 2u);
  for (const auto& [k, frequent] : levels) {
    ItemsetSet serial = GenerateCandidates(catalog, frequent, 1);
    CandidateGenStats stats;
    ItemsetSet parallel =
        GenerateCandidates(catalog, frequent, num_threads, &stats);
    EXPECT_EQ(ToVectors(parallel), ToVectors(serial)) << "level " << k + 1;
    EXPECT_GT(stats.seconds, 0.0);
  }
}

TEST_P(RulePipelineTest, LargeJoinTakesParallelPathAndMatchesSerial) {
  const size_t num_threads = static_cast<size_t>(GetParam());
  MappedTable table = WideQuantTable(/*seed=*/29, /*num_rows=*/800);
  MinerOptions options;
  options.minsup = 0.02;
  options.max_support = 0.5;
  ItemCatalog catalog = ItemCatalog::Build(table, options);
  ItemsetSet l1(1);
  for (size_t i = 0; i < catalog.num_items(); ++i) {
    l1.AppendVector({static_cast<int32_t>(i)});
  }
  ASSERT_GE(l1.size(), 256u);  // past the serial cutoff

  CandidateGenStats serial_stats;
  ItemsetSet serial = GenerateCandidates(catalog, l1, 1, &serial_stats);
  EXPECT_EQ(serial_stats.threads_used, 1u);

  CandidateGenStats parallel_stats;
  ItemsetSet parallel =
      GenerateCandidates(catalog, l1, num_threads, &parallel_stats);
  EXPECT_EQ(parallel_stats.threads_used, num_threads);
  EXPECT_EQ(parallel_stats.join_candidates, serial_stats.join_candidates);
  EXPECT_EQ(ToVectors(parallel), ToVectors(serial));
}

TEST_P(RulePipelineTest, RulesMatchSerial) {
  const size_t num_threads = static_cast<size_t>(GetParam());
  MappedTable table = MixedTable(/*seed=*/43, /*num_rows=*/1500);
  MinerOptions options;
  options.minsup = 0.05;
  options.max_support = 0.7;
  ItemCatalog catalog = ItemCatalog::Build(table, options);
  FrequentItemsetResult mined = MineFrequentItemsets(table, catalog, options);
  ASSERT_GE(mined.itemsets.size(), 128u);  // past the serial cutoff

  size_t serial_threads = 0;
  std::vector<BooleanRule> serial = GenerateRules(
      mined.itemsets, table.num_rows(), /*minconf=*/0.3, 1, &serial_threads);
  EXPECT_EQ(serial_threads, 1u);
  ASSERT_FALSE(serial.empty());

  size_t parallel_threads = 0;
  std::vector<BooleanRule> parallel =
      GenerateRules(mined.itemsets, table.num_rows(), /*minconf=*/0.3,
                    num_threads, &parallel_threads);
  EXPECT_EQ(parallel_threads, num_threads);
  ASSERT_EQ(parallel.size(), serial.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(parallel[i].antecedent, serial[i].antecedent) << "rule " << i;
    EXPECT_EQ(parallel[i].consequent, serial[i].consequent) << "rule " << i;
    EXPECT_EQ(parallel[i].count, serial[i].count) << "rule " << i;
    EXPECT_EQ(parallel[i].support, serial[i].support) << "rule " << i;
    EXPECT_EQ(parallel[i].confidence, serial[i].confidence) << "rule " << i;
  }

  // The decoded quantitative rules must be byte-identical as well.
  std::vector<QuantRule> serial_quant = GenerateQuantRules(
      mined.itemsets, catalog, table.num_rows(), /*minconf=*/0.3, 1);
  std::vector<QuantRule> parallel_quant =
      GenerateQuantRules(mined.itemsets, catalog, table.num_rows(),
                         /*minconf=*/0.3, num_threads);
  ASSERT_EQ(parallel_quant.size(), serial_quant.size());
  for (size_t i = 0; i < serial_quant.size(); ++i) {
    EXPECT_EQ(RuleToJson(parallel_quant[i], table),
              RuleToJson(serial_quant[i], table));
  }
}

TEST_P(RulePipelineTest, InterestFlagsMatchSerial) {
  const size_t num_threads = static_cast<size_t>(GetParam());
  MappedTable table = MixedTable(/*seed=*/61, /*num_rows=*/1500);
  MinerOptions options;
  options.minsup = 0.05;
  options.max_support = 0.7;
  ItemCatalog catalog = ItemCatalog::Build(table, options);
  FrequentItemsetResult mined = MineFrequentItemsets(table, catalog, options);
  std::vector<QuantRule> rules = GenerateQuantRules(
      mined.itemsets, catalog, table.num_rows(), /*minconf=*/0.25);
  ASSERT_GE(rules.size(), 64u);  // past the serial cutoff

  // Enough independent attribute-split groups that the pool is actually
  // populated at every tested width.
  std::set<std::vector<int32_t>> splits;
  for (const QuantRule& rule : rules) {
    std::vector<int32_t> key = AttributesOf(rule.antecedent);
    key.push_back(-1);
    const std::vector<int32_t> cons = AttributesOf(rule.consequent);
    key.insert(key.end(), cons.begin(), cons.end());
    splits.insert(std::move(key));
  }
  ASSERT_GE(splits.size(), num_threads);

  InterestEvaluator evaluator(&catalog, &mined.itemsets,
                              /*interest_level=*/1.1,
                              InterestMode::kSupportOrConfidence);
  std::vector<QuantRule> serial = rules;
  size_t serial_threads = 0;
  evaluator.EvaluateRules(&serial, 1, &serial_threads);
  EXPECT_EQ(serial_threads, 1u);

  std::vector<QuantRule> parallel = rules;
  size_t parallel_threads = 0;
  evaluator.EvaluateRules(&parallel, num_threads, &parallel_threads);
  EXPECT_EQ(parallel_threads, num_threads);
  for (size_t i = 0; i < rules.size(); ++i) {
    EXPECT_EQ(parallel[i].interesting, serial[i].interesting) << "rule " << i;
  }
}

TEST_P(RulePipelineTest, EndToEndMinerMatchesSerial) {
  const size_t num_threads = static_cast<size_t>(GetParam());
  MappedTable table = MixedTable(/*seed=*/83, /*num_rows=*/1200);
  MinerOptions serial_options;
  serial_options.minsup = 0.07;
  serial_options.max_support = 0.7;
  serial_options.minconf = 0.3;
  serial_options.interest_level = 1.1;
  serial_options.num_threads = 1;
  Result<MiningResult> serial_result =
      QuantitativeRuleMiner(serial_options).MineMapped(table);
  ASSERT_TRUE(serial_result.ok()) << serial_result.status().ToString();
  MiningResult& serial = *serial_result;

  MinerOptions parallel_options = serial_options;
  parallel_options.num_threads = num_threads;
  Result<MiningResult> parallel_result =
      QuantitativeRuleMiner(parallel_options).MineMapped(table);
  ASSERT_TRUE(parallel_result.ok()) << parallel_result.status().ToString();
  MiningResult& parallel = *parallel_result;

  ASSERT_EQ(parallel.frequent_itemsets.size(),
            serial.frequent_itemsets.size());
  for (size_t i = 0; i < serial.frequent_itemsets.size(); ++i) {
    EXPECT_EQ(parallel.frequent_itemsets[i].items,
              serial.frequent_itemsets[i].items);
    EXPECT_EQ(parallel.frequent_itemsets[i].count,
              serial.frequent_itemsets[i].count);
  }
  ASSERT_EQ(parallel.rules.size(), serial.rules.size());
  for (size_t i = 0; i < serial.rules.size(); ++i) {
    EXPECT_EQ(RuleToJson(parallel.rules[i], parallel.mapped),
              RuleToJson(serial.rules[i], serial.mapped));
  }
  EXPECT_EQ(parallel.stats.num_interesting_rules,
            serial.stats.num_interesting_rules);
}

INSTANTIATE_TEST_SUITE_P(Threads, RulePipelineTest,
                         ::testing::Values(2, 4, 8));

TEST(RulePipelineTest, StatsJsonCarriesPhaseFields) {
  MappedTable table = MixedTable(/*seed=*/97, /*num_rows=*/600);
  MinerOptions options;
  options.minsup = 0.1;
  options.max_support = 0.7;
  options.minconf = 0.3;
  options.interest_level = 1.1;
  options.num_threads = 2;
  Result<MiningResult> mine_result =
      QuantitativeRuleMiner(options).MineMapped(table);
  ASSERT_TRUE(mine_result.ok()) << mine_result.status().ToString();
  MiningResult& result = *mine_result;
  const std::string json = StatsToJson(result.stats);
  for (const char* field :
       {"\"candgen_seconds\":", "\"rulegen_seconds\":",
        "\"interest_seconds\":", "\"candgen_threads_used\":",
        "\"rulegen_threads_used\":", "\"interest_threads_used\":",
        "\"candgen\":{\"threads_used\":"}) {
    EXPECT_NE(json.find(field), std::string::npos) << field;
  }
}

TEST(RulePipelineTest, SharedHashMatchesGroupKeyHash) {
  // GroupKeyHash (counting) and Int32VectorHash (interest) must
  // stay the same function: both delegate to common/hash.h. Rulegen's
  // in-place HashInt32WordsMasked must hash a sub-itemset as
  // HashInt32Words hashes the same words stored contiguously.
  GroupKeyHash group_hash;
  Int32VectorHash vec_hash;
  Rng rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<int32_t> key;
    const size_t len = 1 + rng.UniformInt(0, 5);
    for (size_t i = 0; i < len; ++i) {
      key.push_back(static_cast<int32_t>(rng.UniformInt(0, 100)) - 2);
    }
    EXPECT_EQ(group_hash(key), vec_hash(key));
    EXPECT_EQ(vec_hash(key), HashInt32Words(key.data(), key.size()));
    const uint64_t keep =
        static_cast<uint64_t>(rng.UniformInt(0, (int64_t{1} << len) - 1));
    std::vector<int32_t> sub;
    for (size_t i = 0; i < len; ++i) {
      if ((keep >> i) & 1) sub.push_back(key[i]);
    }
    EXPECT_EQ(HashInt32WordsMasked(key.data(), keep),
              HashInt32Words(sub.data(), sub.size()));
  }
}

TEST(RulePipelineTest, BooleanAprioriMatchesSerial) {
  // The boolean Apriori pass counting shards transactions the same way; the
  // mined itemsets must be identical at any thread count.
  Rng rng(101);
  std::vector<Transaction> transactions;
  for (size_t t = 0; t < 2000; ++t) {
    std::set<int32_t> items;
    const size_t len = 2 + rng.UniformInt(0, 5);
    for (size_t i = 0; i < len; ++i) {
      items.insert(static_cast<int32_t>(rng.UniformInt(0, 24)));
    }
    transactions.emplace_back(items.begin(), items.end());
  }
  AprioriOptions options;
  options.minsup = 0.05;
  options.num_threads = 1;
  const std::vector<FrequentItemset> serial =
      AprioriMine(transactions, options);
  ASSERT_FALSE(serial.empty());
  for (size_t threads : {2u, 4u, 8u}) {
    options.num_threads = threads;
    EXPECT_EQ(AprioriMine(transactions, options), serial)
        << "threads " << threads;
  }
}

// --- Close-ancestor filter vs the all-pairs reference ----------------------

// The original O(|ancestors|^2) close-ancestor computation, kept here as the
// reference: process rules most-general first; an interesting ancestor is
// close iff it does not strictly generalize any *other* ancestor; the rule
// is interesting iff it is R-interesting w.r.t. every close ancestor.
std::vector<bool> BruteForceInterestFlags(const InterestEvaluator& evaluator,
                                          const std::vector<QuantRule>& rules) {
  auto rule_generalizes = [](const QuantRule& a, const QuantRule& b) {
    if (!IsGeneralization(a.antecedent, b.antecedent)) return false;
    if (!IsGeneralization(a.consequent, b.consequent)) return false;
    return a.antecedent != b.antecedent || a.consequent != b.consequent;
  };
  auto volume = [](const QuantRule& rule) {
    double v = 1.0;
    for (const RangeItem& item : rule.antecedent) {
      v *= static_cast<double>(item.Width());
    }
    for (const RangeItem& item : rule.consequent) {
      v *= static_cast<double>(item.Width());
    }
    return v;
  };

  std::map<std::vector<int32_t>, std::vector<size_t>> groups;
  for (size_t i = 0; i < rules.size(); ++i) {
    std::vector<int32_t> key = AttributesOf(rules[i].antecedent);
    key.push_back(-1);
    const std::vector<int32_t> cons = AttributesOf(rules[i].consequent);
    key.insert(key.end(), cons.begin(), cons.end());
    groups[std::move(key)].push_back(i);
  }

  std::vector<bool> flags(rules.size(), true);
  for (const auto& [key, members] : groups) {
    std::vector<size_t> order = members;
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      const double va = volume(rules[a]);
      const double vb = volume(rules[b]);
      if (va != vb) return va > vb;
      return a < b;
    });
    std::vector<size_t> interesting_so_far;
    for (size_t index : order) {
      std::vector<size_t> ancestors;
      for (size_t candidate : interesting_so_far) {
        if (rule_generalizes(rules[candidate], rules[index])) {
          ancestors.push_back(candidate);
        }
      }
      bool interesting = true;
      for (size_t i = 0; i < ancestors.size() && interesting; ++i) {
        bool has_closer = false;
        for (size_t j = 0; j < ancestors.size(); ++j) {
          if (i != j &&
              rule_generalizes(rules[ancestors[i]], rules[ancestors[j]])) {
            has_closer = true;
            break;
          }
        }
        if (has_closer) continue;
        if (!evaluator.IsRuleRInterestingWrt(rules[index],
                                             rules[ancestors[i]])) {
          interesting = false;
        }
      }
      flags[index] = interesting;
      if (interesting) interesting_so_far.push_back(index);
    }
  }
  return flags;
}

TEST(CloseAncestorTest, DominanceFilterMatchesBruteForce) {
  for (uint64_t seed : {11u, 13u, 19u}) {
    MappedTable table = MixedTable(seed, /*num_rows=*/1000);
    MinerOptions options;
    options.minsup = 0.06;
    options.max_support = 0.7;
    ItemCatalog catalog = ItemCatalog::Build(table, options);
    FrequentItemsetResult mined =
        MineFrequentItemsets(table, catalog, options);
    std::vector<QuantRule> rules = GenerateQuantRules(
        mined.itemsets, catalog, table.num_rows(), /*minconf=*/0.25);
    ASSERT_FALSE(rules.empty());

    for (double level : {1.05, 1.5}) {
      InterestEvaluator evaluator(&catalog, &mined.itemsets, level,
                                  InterestMode::kSupportOrConfidence);
      const std::vector<bool> expected =
          BruteForceInterestFlags(evaluator, rules);
      // Some rules must actually have close ancestors for the comparison to
      // bite; the combined quant ranges and the taxonomy guarantee that.
      EXPECT_NE(std::count(expected.begin(), expected.end(), false), 0)
          << "seed " << seed << " level " << level;

      for (size_t threads : {1u, 4u}) {
        std::vector<QuantRule> got = rules;
        evaluator.EvaluateRules(&got, threads);
        for (size_t i = 0; i < got.size(); ++i) {
          EXPECT_EQ(got[i].interesting, expected[i])
              << "seed " << seed << " level " << level << " threads "
              << threads << " rule " << i;
        }
      }
    }
  }
}

}  // namespace
}  // namespace qarm
