#include "mining/apriori.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>

#include "common/macros.h"
#include "common/thread_pool.h"
#include "index/hash_tree.h"

namespace qarm {
namespace {

// Below this many transactions a counting pass is cheaper than waking the
// pool; the serial path is taken regardless of num_threads.
constexpr size_t kMinParallelTransactions = 1024;

}  // namespace

std::vector<std::vector<int32_t>> AprioriGen(
    const std::vector<std::vector<int32_t>>& frequent) {
  std::vector<std::vector<int32_t>> candidates;
  if (frequent.empty()) return candidates;
  const size_t k_minus_1 = frequent[0].size();

  // Join phase: p and q share the first k-2 items; p.last < q.last.
  // `frequent` is sorted, so join partners are contiguous runs.
  size_t run_start = 0;
  while (run_start < frequent.size()) {
    size_t run_end = run_start + 1;
    auto same_prefix = [&](const std::vector<int32_t>& a,
                           const std::vector<int32_t>& b) {
      return std::equal(a.begin(), a.end() - 1, b.begin(), b.end() - 1);
    };
    while (run_end < frequent.size() &&
           same_prefix(frequent[run_start], frequent[run_end])) {
      ++run_end;
    }
    for (size_t i = run_start; i < run_end; ++i) {
      for (size_t j = i + 1; j < run_end; ++j) {
        std::vector<int32_t> candidate = frequent[i];
        candidate.push_back(frequent[j].back());
        candidates.push_back(std::move(candidate));
      }
    }
    run_start = run_end;
  }

  // Prune phase: every (k-1)-subset must be frequent.
  auto is_frequent = [&](const std::vector<int32_t>& set) {
    return std::binary_search(frequent.begin(), frequent.end(), set);
  };
  std::vector<std::vector<int32_t>> pruned;
  pruned.reserve(candidates.size());
  std::vector<int32_t> subset(k_minus_1);
  for (std::vector<int32_t>& candidate : candidates) {
    bool keep = true;
    // Skipping position k-1 and k (the two join parents) is unnecessary but
    // harmless; check all subsets for clarity.
    for (size_t skip = 0; keep && skip + 2 < candidate.size(); ++skip) {
      size_t out = 0;
      for (size_t i = 0; i < candidate.size(); ++i) {
        if (i != skip) subset[out++] = candidate[i];
      }
      keep = is_frequent(subset);
    }
    if (keep) pruned.push_back(std::move(candidate));
  }
  return pruned;
}

uint64_t MinSupportCount(double minsup, uint64_t num_rows) {
  const uint64_t count = static_cast<uint64_t>(
      std::ceil(minsup * static_cast<double>(num_rows) - 1e-9));
  return count == 0 ? 1 : count;
}

std::vector<FrequentItemset> AprioriMine(
    const std::vector<Transaction>& transactions,
    const AprioriOptions& options) {
  std::vector<FrequentItemset> result;
  if (transactions.empty()) return result;
  const uint64_t min_count =
      MinSupportCount(options.minsup, transactions.size());

  // Pass 1: count single items directly.
  std::map<int32_t, uint64_t> item_counts;
  for (const Transaction& t : transactions) {
    for (size_t i = 0; i < t.size(); ++i) {
      QARM_DCHECK(i == 0 || t[i - 1] < t[i]);
      ++item_counts[t[i]];
    }
  }
  std::vector<std::vector<int32_t>> frequent;  // L_{k}, sorted
  for (const auto& [item, count] : item_counts) {
    if (count >= min_count && count > 0) {
      result.push_back(FrequentItemset{{item}, count});
      frequent.push_back({item});
    }
  }

  // Pool for the counting passes: created lazily on the first pass that is
  // large enough to shard, then reused across passes.
  const size_t threads = transactions.size() >= kMinParallelTransactions
                             ? ResolveNumThreads(options.num_threads)
                             : 1;
  std::unique_ptr<ThreadPool> pool;

  // Passes k >= 2.
  while (!frequent.empty()) {
    std::vector<std::vector<int32_t>> candidates = AprioriGen(frequent);
    if (candidates.empty()) break;

    HashTree tree(options.leaf_capacity, options.fanout);
    for (size_t i = 0; i < candidates.size(); ++i) {
      tree.Insert(candidates[i], static_cast<int32_t>(i));
    }
    std::vector<uint64_t> counts(candidates.size(), 0);
    if (threads <= 1) {
      for (const Transaction& t : transactions) {
        tree.ForEachSubset(
            t, [&counts](int32_t id) { ++counts[static_cast<size_t>(id)]; });
      }
    } else {
      // Shard the transactions; each worker probes the (now immutable) tree
      // with its own scratch into its own counter vector. Addition commutes,
      // so the shard-order reduction is identical to the serial counts.
      if (pool == nullptr) pool = std::make_unique<ThreadPool>(threads);
      const std::vector<IndexRange> shards =
          SplitRange(transactions.size(), threads);
      std::vector<std::vector<uint64_t>> partial(
          shards.size(), std::vector<uint64_t>(candidates.size(), 0));
      pool->ParallelFor(shards.size(), [&](size_t s) {
        std::vector<uint64_t>& local = partial[s];
        HashTree::SubsetScratch scratch;
        for (size_t i = shards[s].begin; i < shards[s].end; ++i) {
          tree.ForEachSubset(
              transactions[i],
              [&local](int32_t id) { ++local[static_cast<size_t>(id)]; },
              &scratch);
        }
      });
      for (const std::vector<uint64_t>& local : partial) {
        for (size_t i = 0; i < counts.size(); ++i) counts[i] += local[i];
      }
    }

    frequent.clear();
    for (size_t i = 0; i < candidates.size(); ++i) {
      if (counts[i] >= min_count && counts[i] > 0) {
        result.push_back(FrequentItemset{candidates[i], counts[i]});
        frequent.push_back(std::move(candidates[i]));
      }
    }
    // AprioriGen requires sorted input; frequent candidates emerge in
    // generation order, which is already lexicographic, but sort defensively.
    std::sort(frequent.begin(), frequent.end());
  }
  return result;
}

}  // namespace qarm
