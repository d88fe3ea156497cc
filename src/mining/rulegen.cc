#include "mining/rulegen.h"

#include <algorithm>
#include <limits>
#include <memory>

#include "common/hash.h"
#include "common/macros.h"
#include "common/thread_pool.h"

namespace qarm {
namespace {

// Below this many frequent itemsets the whole generation is cheaper than
// waking a pool; the serial path is taken regardless of num_threads.
constexpr size_t kMinParallelItemsets = 128;

// Tasks per worker: itemset costs vary wildly (rule count is exponential in
// itemset size), so hand the pool more chunks than workers and let dynamic
// task claiming balance them.
constexpr size_t kChunksPerThread = 8;

// The frequent-itemset index: an open-addressing table (linear probing,
// load at most 1/2) of positions into the frequent-itemset vector, built
// once and keyed by the stored itemsets themselves, so it copies no key.
// A lookup names a sub-itemset by a mask over a stored itemset's
// positions, hashes those items in place (HashInt32WordsMasked hashes them
// as HashInt32Words hashes the stored copy) and compares them against the
// candidate slot's itemset: finding X = I \ Y allocates nothing.
class FrequentItemsetIndex {
 public:
  explicit FrequentItemsetIndex(const std::vector<FrequentItemset>& itemsets)
      : itemsets_(itemsets) {
    QARM_CHECK_LT(itemsets.size(), size_t{kEmpty});
    size_t capacity = 16;
    while (capacity < 2 * itemsets.size()) capacity *= 2;
    mask_ = capacity - 1;
    slots_.assign(capacity, kEmpty);
    for (size_t i = 0; i < itemsets.size(); ++i) {
      const std::vector<int32_t>& items = itemsets[i].items;
      size_t slot = HashInt32Words(items.data(), items.size()) & mask_;
      while (slots_[slot] != kEmpty) slot = (slot + 1) & mask_;
      slots_[slot] = static_cast<uint32_t>(i);
    }
  }

  // The frequent itemset made of items[i] for each set bit i of `keep`,
  // or nullptr when it is not frequent.
  const FrequentItemset* Find(const std::vector<int32_t>& items,
                              uint64_t keep) const {
    const size_t size = static_cast<size_t>(__builtin_popcountll(keep));
    for (size_t slot = HashInt32WordsMasked(items.data(), keep) & mask_;;
         slot = (slot + 1) & mask_) {
      if (slots_[slot] == kEmpty) return nullptr;
      const FrequentItemset& stored = itemsets_[slots_[slot]];
      if (stored.items.size() == size && Matches(stored.items, items, keep)) {
        return &stored;
      }
    }
  }

 private:
  static constexpr uint32_t kEmpty = std::numeric_limits<uint32_t>::max();

  static bool Matches(const std::vector<int32_t>& stored,
                      const std::vector<int32_t>& items, uint64_t keep) {
    for (size_t j = 0; keep != 0; keep &= keep - 1, ++j) {
      if (stored[j] != items[__builtin_ctzll(keep)]) return false;
    }
    return true;
  }

  const std::vector<FrequentItemset>& itemsets_;
  std::vector<uint32_t> slots_;
  size_t mask_ = 0;
};

uint64_t LowBit(uint64_t mask) { return mask & (~mask + 1); }

uint64_t HighBit(uint64_t mask) {
  return uint64_t{1} << (63 - __builtin_clzll(mask));
}

// Orders masks of equal popcount by their position lists,
// lexicographically: the lists agree below the lowest bit where the masks
// differ, and the mask holding that bit has the smaller next position.
// Items are sorted, so this is also the order of the item lists.
bool PositionsLess(uint64_t a, uint64_t b) {
  return (a & LowBit(a ^ b)) != 0;
}

// apriori-gen over consequent masks of one size m: joins the masks that
// share their m-1 lowest positions, and keeps a join only when each of its
// m-subsets is in `level` too (the two dropping one of its top two
// positions are the join parents). `level` is in PositionsLess order, so
// join partners are contiguous runs and `next` comes out in that order.
void JoinMasks(const std::vector<uint64_t>& level,
               std::vector<uint64_t>* next) {
  next->clear();
  size_t run = 0;
  while (run < level.size()) {
    const uint64_t prefix = level[run] & ~HighBit(level[run]);
    size_t run_end = run + 1;
    while (run_end < level.size() &&
           (level[run_end] & ~HighBit(level[run_end])) == prefix) {
      ++run_end;
    }
    for (size_t i = run; i < run_end; ++i) {
      for (size_t j = i + 1; j < run_end; ++j) {
        const uint64_t candidate = level[i] | HighBit(level[j]);
        bool keep = true;
        for (uint64_t rest = prefix; keep && rest != 0; rest &= rest - 1) {
          keep = std::binary_search(level.begin(), level.end(),
                                    candidate & ~LowBit(rest), PositionsLess);
        }
        if (keep) next->push_back(candidate);
      }
    }
    run = run_end;
  }
}

// Per-worker buffers of the level-wise consequent search.
struct MaskScratch {
  std::vector<uint64_t> level;
  std::vector<uint64_t> surviving;
};

// ap-genrules for itemsets[index]: grow consequent masks level-wise; if a
// consequent fails the confidence test, all of its supersets fail too (a
// superset consequent has a smaller antecedent, hence larger antecedent
// support, hence no larger confidence). Appends the rules to `out`.
void SplitItemset(const std::vector<FrequentItemset>& itemsets, size_t index,
                  const FrequentItemsetIndex& support, double minconf,
                  MaskScratch* scratch, std::vector<RuleSplit>* out) {
  const FrequentItemset& itemset = itemsets[index];
  const size_t k = itemset.items.size();
  if (k < 2) return;
  QARM_CHECK_LE(k, size_t{64});
  const uint64_t all = k == 64 ? ~uint64_t{0} : (uint64_t{1} << k) - 1;
  const double itemset_support = static_cast<double>(itemset.count);

  std::vector<uint64_t>& level = scratch->level;
  std::vector<uint64_t>& surviving = scratch->surviving;
  level.clear();
  for (size_t i = 0; i < k; ++i) level.push_back(uint64_t{1} << i);
  // Consequents stay smaller than the itemset, so no antecedent is empty.
  for (size_t m = 1; m < k && !level.empty(); ++m) {
    surviving.clear();
    for (uint64_t consequent : level) {
      const FrequentItemset* antecedent =
          support.Find(itemset.items, all & ~consequent);
      QARM_CHECK(antecedent != nullptr);
      const double confidence =
          itemset_support / static_cast<double>(antecedent->count);
      if (confidence + 1e-12 >= minconf) {
        const FrequentItemset* alone = support.Find(itemset.items, consequent);
        out->push_back(RuleSplit{static_cast<uint32_t>(index), consequent,
                                 antecedent->count,
                                 alone != nullptr ? alone->count : 0});
        surviving.push_back(consequent);
      }
    }
    JoinMasks(surviving, &level);
  }
}

}  // namespace

void EmitRuleSplits(
    const std::vector<FrequentItemset>& itemsets, double minconf,
    size_t num_threads, size_t* threads_used,
    const std::function<void(size_t num_rules)>& allocate,
    const std::function<void(const RuleSplit& split, size_t rule_index)>&
        decode) {
  const FrequentItemsetIndex support(itemsets);
  const size_t threads = itemsets.size() >= kMinParallelItemsets
                             ? ResolveNumThreads(num_threads)
                             : 1;
  if (threads_used != nullptr) *threads_used = threads;

  // Each chunk of itemsets fills its own split buffer; the index and the
  // input are read-only meanwhile. The buffers' sizes fix every rule's
  // final index, so the decode pass writes each chunk's rules in place and
  // the order is the serial order at any thread count.
  const std::vector<IndexRange> chunks =
      threads <= 1 ? std::vector<IndexRange>{{0, itemsets.size()}}
                   : SplitRange(itemsets.size(), threads * kChunksPerThread);
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
  const auto for_each_chunk = [&](const std::function<void(size_t)>& fn) {
    if (pool != nullptr) {
      pool->ParallelFor(chunks.size(), fn);
    } else {
      for (size_t c = 0; c < chunks.size(); ++c) fn(c);
    }
  };

  std::vector<std::vector<RuleSplit>> splits(chunks.size());
  for_each_chunk([&](size_t c) {
    MaskScratch scratch;
    for (size_t i = chunks[c].begin; i < chunks[c].end; ++i) {
      SplitItemset(itemsets, i, support, minconf, &scratch, &splits[c]);
    }
  });
  std::vector<size_t> first(chunks.size() + 1, 0);
  for (size_t c = 0; c < chunks.size(); ++c) {
    first[c + 1] = first[c] + splits[c].size();
  }
  allocate(first.back());
  for_each_chunk([&](size_t c) {
    for (size_t j = 0; j < splits[c].size(); ++j) {
      decode(splits[c][j], first[c] + j);
    }
    std::vector<RuleSplit>().swap(splits[c]);
  });
}

std::vector<BooleanRule> GenerateRules(
    const std::vector<FrequentItemset>& itemsets, size_t num_transactions,
    double minconf, size_t num_threads, size_t* threads_used) {
  return GenerateRulesAs<BooleanRule>(itemsets, num_transactions, minconf,
                                      num_threads, threads_used,
                                      [](int32_t item) { return item; });
}

}  // namespace qarm
