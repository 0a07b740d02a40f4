// The spatial partition of a sharded GaussDb (api/partitioner.h): part sizes
// snapped out of the bulk loader's leaf-fill bands, a deterministic cut that
// really separates space, and top-level routing by the paper's Section 5.3
// insertion rule over the shards' root MBRs.

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/partitioner.h"
#include "data/generators.h"
#include "gausstree/gauss_tree.h"
#include "gausstree/node.h"
#include "storage/page.h"

namespace gauss {
namespace {

// Leaf capacity at the benchmark's geometry (dim 10, 8 KiB pages).
size_t BenchLeafCapacity() {
  return GtCapacities::ForPageSize(kDefaultPageSize, 10).leaf;
}

// True when `size` lies strictly inside a band (C*2^j, (C+1)*2^j), where a
// bulk-loaded subtree pays one extra leaf per object above C*2^j.
bool InFillBand(size_t size, size_t capacity) {
  for (size_t block = capacity; block < size; block *= 2) {
    if (size * capacity < block * (capacity + 1)) return true;
  }
  return false;
}

PfvDataset MakeDataset(size_t size, uint64_t seed) {
  if (size == 0) return PfvDataset(3);
  ClusteredDatasetConfig config;
  config.size = size;
  config.dim = 3;
  config.cluster_count = 20;
  config.seed = seed;
  return GenerateClusteredDataset(config);
}

TEST(PartitionerTest, BenchmarkGeometryHasLeafCapacity48) {
  EXPECT_EQ(BenchLeafCapacity(), 48u);
}

// The parts are position lists: each ascending, pairwise disjoint, and
// together covering [0, n). No part leaves a cut in a fill band, and a
// second run yields the same lists. The benchmark's gallery over 4 shards
// pins the snapped sizes: plain equal-count cuts would put all four parts
// at 25,000, inside the (24576, 25088) band.
TEST(PartitionerTest, PartSizesAvoidFillBandsAndSplitIsDeterministic) {
  const size_t capacity = BenchLeafCapacity();
  for (const size_t n : {0, 1, 5, 47, 48, 49, 1200, 100000}) {
    const PfvDataset dataset = MakeDataset(n, /*seed=*/n + 7);
    for (const size_t shards : {1, 2, 3, 4, 5, 8}) {
      SCOPED_TRACE("n=" + std::to_string(n) +
                   " shards=" + std::to_string(shards));
      const std::vector<std::vector<uint32_t>> parts =
          SplitSpatial(dataset, shards, capacity);
      ASSERT_EQ(parts.size(), shards);
      EXPECT_EQ(parts, SplitSpatial(dataset, shards, capacity));
      std::vector<size_t> sizes;
      std::vector<uint32_t> all;
      for (size_t s = 0; s < shards; ++s) {
        sizes.push_back(parts[s].size());
        EXPECT_TRUE(std::is_sorted(parts[s].begin(), parts[s].end()))
            << "shard " << s;
        // A single shard is the whole gallery: there is no cut to snap.
        if (shards > 1) {
          EXPECT_FALSE(InFillBand(parts[s].size(), capacity))
              << "shard " << s << " holds " << parts[s].size();
        }
        all.insert(all.end(), parts[s].begin(), parts[s].end());
      }
      // Disjoint and covering: the concatenation sorts to 0, 1, ..., n-1.
      std::sort(all.begin(), all.end());
      std::vector<uint32_t> want(n);
      std::iota(want.begin(), want.end(), uint32_t{0});
      EXPECT_EQ(all, want);
      if (n == 100000 && shards == 4) {
        EXPECT_EQ(sizes, (std::vector<size_t>{24576, 24576, 25424, 25424}));
      }
    }
  }
}

// A two-way cut separates the parts along one mu axis: nothing on the left
// lies beyond anything on the right.
TEST(PartitionerTest, TwoWayCutSeparatesSpace) {
  const PfvDataset dataset = MakeDataset(1000, /*seed=*/3);
  const std::vector<std::vector<uint32_t>> parts =
      SplitSpatial(dataset, 2, BenchLeafCapacity());
  ASSERT_EQ(parts.size(), 2u);
  bool separated_on_some_axis = false;
  for (size_t d = 0; d < dataset.dim(); ++d) {
    double left_max = -std::numeric_limits<double>::infinity();
    double right_min = std::numeric_limits<double>::infinity();
    for (const uint32_t i : parts[0]) {
      left_max = std::max(left_max, dataset[i].mu[d]);
    }
    for (const uint32_t i : parts[1]) {
      right_min = std::min(right_min, dataset[i].mu[d]);
    }
    separated_on_some_axis |= left_max <= right_min;
  }
  EXPECT_TRUE(separated_on_some_axis);
}

GtChildEntry Box(double mu_lo, double mu_hi, double sigma_lo,
                 double sigma_hi) {
  GtChildEntry entry;
  entry.count = 10;
  entry.bounds.assign(2, DimBounds{mu_lo, mu_hi, sigma_lo, sigma_hi});
  return entry;
}

Pfv Point(uint64_t id, double mu, double sigma) {
  return Pfv(id, std::vector<double>(2, mu), std::vector<double>(2, sigma));
}

TEST(PartitionerTest, RoutesToTheOneContainingRootMbr) {
  const std::vector<GtChildEntry> roots = {Box(0.0, 0.2, 0.01, 0.05),
                                           Box(0.4, 0.6, 0.01, 0.05),
                                           Box(0.8, 1.0, 0.01, 0.05)};
  const GaussTreeOptions options;
  EXPECT_EQ(ChooseSubtree(roots, Point(1, 0.1, 0.02), options), 0u);
  EXPECT_EQ(ChooseSubtree(roots, Point(2, 0.5, 0.02), options), 1u);
  EXPECT_EQ(ChooseSubtree(roots, Point(3, 0.9, 0.02), options), 2u);
  // Outside every root: the least cost growth, i.e. the nearest box here.
  EXPECT_EQ(ChooseSubtree(roots, Point(4, 0.65, 0.02), options), 1u);
}

TEST(PartitionerTest, RoutingTiesGoToTheLowestShard) {
  const GaussTreeOptions options;
  // Two identical containing roots (shards 1 and 3): shard 1.
  const std::vector<GtChildEntry> roots = {
      Box(0.8, 1.0, 0.01, 0.05), Box(0.0, 0.5, 0.01, 0.05),
      Box(0.6, 0.7, 0.01, 0.05), Box(0.0, 0.5, 0.01, 0.05)};
  EXPECT_EQ(ChooseSubtree(roots, Point(1, 0.25, 0.02), options), 1u);
  // Nothing but empty shards: every growth ties, shard 0.
  std::vector<GtChildEntry> empty(4);
  for (GtChildEntry& entry : empty) {
    entry.bounds.assign(2, DimBounds{std::numeric_limits<double>::infinity(),
                                     -std::numeric_limits<double>::infinity(),
                                     std::numeric_limits<double>::infinity(),
                                     -std::numeric_limits<double>::infinity()});
  }
  EXPECT_EQ(ChooseSubtree(empty, Point(2, 0.25, 0.02), options), 0u);
}

}  // namespace
}  // namespace gauss
