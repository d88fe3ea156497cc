// Counting-structure microbenchmarks (Section 5.2 ablation): the
// n-dimensional array (with and without the prefix-sum collection
// optimization) vs the R*-tree, across dimensionalities and rectangle
// counts. Reports per-pass cost: processing all points plus collecting all
// rectangle counts.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/random.h"
#include "index/ndim_array.h"
#include "index/rstar_tree.h"

namespace qarm {
namespace {

struct Workload {
  std::vector<int32_t> dims;
  std::vector<IntRect> rects;
  std::vector<std::vector<int32_t>> points;
};

Workload MakeWorkload(size_t num_dims, int32_t domain, size_t num_rects,
                      size_t num_points) {
  Rng rng(99);
  Workload w;
  w.dims.assign(num_dims, domain);
  for (size_t i = 0; i < num_rects; ++i) {
    IntRect rect;
    for (size_t d = 0; d < num_dims; ++d) {
      int32_t a = static_cast<int32_t>(rng.UniformInt(0, domain - 1));
      int32_t b = static_cast<int32_t>(rng.UniformInt(0, domain - 1));
      rect.lo.push_back(std::min(a, b));
      rect.hi.push_back(std::max(a, b));
    }
    w.rects.push_back(std::move(rect));
  }
  for (size_t i = 0; i < num_points; ++i) {
    std::vector<int32_t> p;
    for (size_t d = 0; d < num_dims; ++d) {
      p.push_back(static_cast<int32_t>(rng.UniformInt(0, domain - 1)));
    }
    w.points.push_back(std::move(p));
  }
  return w;
}

// One pass of the dense grid: bump each point's cell, then collect every
// rectangle's count (through prefix sums, or the paper's cell sweep).
void RunArrayPass(benchmark::State& state, const Workload& w,
                  bool use_prefix_sums) {
  for (auto _ : state) {
    NDimArray array(w.dims);
    for (const auto& p : w.points) array.Increment(p.data());
    if (use_prefix_sums) array.BuildPrefixSums();
    std::vector<uint64_t> counts(w.rects.size());
    for (size_t i = 0; i < w.rects.size(); ++i) {
      counts[i] = array.CountRect(w.rects[i]);
    }
    benchmark::DoNotOptimize(counts);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(w.points.size()));
}

// One pass of the R*-tree: index the rectangles, then count every point's
// containing rectangles.
void RunTreePass(benchmark::State& state, const Workload& w) {
  const size_t dims = w.dims.size();
  for (auto _ : state) {
    RStarTree tree(dims);
    for (size_t i = 0; i < w.rects.size(); ++i) {
      RStarRect rect;
      for (size_t d = 0; d < dims; ++d) {
        rect.lo[d] = static_cast<double>(w.rects[i].lo[d]);
        rect.hi[d] = static_cast<double>(w.rects[i].hi[d]);
      }
      tree.Insert(rect, static_cast<int32_t>(i));
    }
    std::vector<uint64_t> counts(w.rects.size(), 0);
    double coords[kRStarMaxDims];
    for (const auto& p : w.points) {
      for (size_t d = 0; d < dims; ++d) coords[d] = p[d];
      tree.ForEachContaining(
          coords, [&counts](int32_t id) { ++counts[static_cast<size_t>(id)]; });
    }
    benchmark::DoNotOptimize(counts);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(w.points.size()));
}

void BM_ArrayPrefix(benchmark::State& state) {
  Workload w = MakeWorkload(static_cast<size_t>(state.range(0)), 32,
                            static_cast<size_t>(state.range(1)), 20000);
  RunArrayPass(state, w, /*use_prefix_sums=*/true);
}
BENCHMARK(BM_ArrayPrefix)
    ->Args({1, 1000})
    ->Args({2, 1000})
    ->Args({2, 10000})
    ->Args({3, 1000});

void BM_ArraySweep(benchmark::State& state) {
  Workload w = MakeWorkload(static_cast<size_t>(state.range(0)), 32,
                            static_cast<size_t>(state.range(1)), 20000);
  RunArrayPass(state, w, /*use_prefix_sums=*/false);
}
BENCHMARK(BM_ArraySweep)
    ->Args({1, 1000})
    ->Args({2, 1000})
    ->Args({2, 10000})
    ->Args({3, 1000});

void BM_RStarTree(benchmark::State& state) {
  Workload w = MakeWorkload(static_cast<size_t>(state.range(0)), 32,
                            static_cast<size_t>(state.range(1)), 20000);
  RunTreePass(state, w);
}
BENCHMARK(BM_RStarTree)
    ->Args({1, 1000})
    ->Args({2, 1000})
    ->Args({2, 10000})
    ->Args({3, 1000});

// High dimensionality with a big domain, where the dense grid would be
// enormous and the tree is the only option.
void BM_TreeHighDim(benchmark::State& state) {
  Workload w = MakeWorkload(5, 50, 2000, 20000);
  RunTreePass(state, w);
}
BENCHMARK(BM_TreeHighDim);

}  // namespace
}  // namespace qarm

BENCHMARK_MAIN();
