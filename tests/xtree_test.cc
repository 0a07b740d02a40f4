#include <algorithm>
#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "common/random.h"
#include "pfv/pfv_file.h"
#include "scan/seq_scan.h"
#include "storage/page_device.h"
#include "storage/sharded_buffer_pool.h"
#include "xtree/rect.h"
#include "xtree/xtree.h"
#include "xtree/xtree_queries.h"

namespace gauss {
namespace {

Pfv RandomPfv(Rng& rng, uint64_t id, size_t dim) {
  std::vector<double> mu(dim), sigma(dim);
  for (double& m : mu) m = rng.Uniform(0, 1);
  for (double& s : sigma) s = rng.Uniform(0.005, 0.1);
  return Pfv(id, std::move(mu), std::move(sigma));
}

TEST(RectTest, QuantileBoxFromPfv) {
  const Pfv pfv(1, {1.0, -2.0}, {0.5, 0.25});
  const Rect rect = Rect::FromPfvQuantile(pfv, 1.96);
  EXPECT_NEAR(rect.lo(0), 1.0 - 1.96 * 0.5, 1e-15);
  EXPECT_NEAR(rect.hi(0), 1.0 + 1.96 * 0.5, 1e-15);
  EXPECT_NEAR(rect.lo(1), -2.0 - 1.96 * 0.25, 1e-15);
  EXPECT_NEAR(rect.hi(1), -2.0 + 1.96 * 0.25, 1e-15);
}

TEST(RectTest, IntersectionAndContainment) {
  const Rect a({0.0, 0.0}, {2.0, 2.0});
  const Rect b({1.0, 1.0}, {3.0, 3.0});
  const Rect c({2.5, 2.5}, {4.0, 4.0});
  EXPECT_TRUE(a.Intersects(b));
  EXPECT_TRUE(b.Intersects(c));
  EXPECT_FALSE(a.Intersects(c));
  EXPECT_TRUE(Rect({-1, -1}, {5, 5}).Contains(a));
  EXPECT_FALSE(a.Contains(b));
}

TEST(RectTest, TouchingRectanglesIntersect) {
  const Rect a({0.0}, {1.0});
  const Rect b({1.0}, {2.0});
  EXPECT_TRUE(a.Intersects(b));
}

TEST(RectTest, VolumeMarginOverlap) {
  const Rect a({0.0, 0.0}, {2.0, 3.0});
  EXPECT_DOUBLE_EQ(a.Volume(), 6.0);
  EXPECT_DOUBLE_EQ(a.Margin(), 5.0);
  const Rect b({1.0, 1.0}, {3.0, 4.0});
  EXPECT_DOUBLE_EQ(a.OverlapVolume(b), 1.0 * 2.0);
  EXPECT_DOUBLE_EQ(a.Enlargement(b), 3.0 * 4.0 - 6.0);
}

TEST(RectTest, MinDistAndCenterDist) {
  const Rect r({0.0, 0.0}, {1.0, 1.0});
  EXPECT_DOUBLE_EQ(r.MinDist2({0.5, 0.5}), 0.0);       // inside
  EXPECT_DOUBLE_EQ(r.MinDist2({2.0, 0.5}), 1.0);       // right of box
  EXPECT_DOUBLE_EQ(r.MinDist2({2.0, 3.0}), 1.0 + 4.0); // corner
  EXPECT_DOUBLE_EQ(r.CenterDist2({1.5, 0.5}), 1.0);
}

TEST(RectTest, IncludeGrowsToCover) {
  Rect a({0.0}, {1.0});
  a.Include(Rect({-2.0}, {0.5}));
  EXPECT_DOUBLE_EQ(a.lo(0), -2.0);
  EXPECT_DOUBLE_EQ(a.hi(0), 1.0);
}

class XTreeTest : public ::testing::Test {
 protected:
  XTreeTest() : device_(2048), pool_(&device_, 1 << 14, /*num_shards=*/1) {}

  InMemoryPageDevice device_;
  ShardedBufferPool pool_;
};

TEST_F(XTreeTest, StructureValidAfterRandomInserts) {
  XTree tree(&pool_, 3);
  PfvFile file(&pool_, 3);
  Rng rng(81);
  for (uint64_t i = 0; i < 2000; ++i) {
    const Pfv pfv = RandomPfv(rng, i, 3);
    file.Append(pfv);
    tree.Insert(pfv, static_cast<uint32_t>(i));
    if (i % 500 == 499) tree.Validate();
  }
  tree.Validate();
  EXPECT_EQ(tree.size(), 2000u);
}

TEST_F(XTreeTest, FinalizePreservesStructure) {
  XTree tree(&pool_, 2);
  Rng rng(82);
  for (uint64_t i = 0; i < 1000; ++i) {
    tree.Insert(RandomPfv(rng, i, 2), static_cast<uint32_t>(i));
  }
  tree.Validate();
  tree.Finalize();
  tree.Validate();  // now exercising serialization + buffer pool
}

TEST_F(XTreeTest, RangeCandidatesFindAllIntersecting) {
  XTree tree(&pool_, 2);
  PfvFile file(&pool_, 2);
  Rng rng(83);
  std::vector<Pfv> pfvs;
  for (uint64_t i = 0; i < 1500; ++i) {
    pfvs.push_back(RandomPfv(rng, i, 2));
    file.Append(pfvs.back());
    tree.Insert(pfvs.back(), static_cast<uint32_t>(i));
  }
  tree.Finalize();
  XTreeQueries queries(&tree, &file);

  const Pfv q = RandomPfv(rng, 5000, 2);
  const Rect query_rect = Rect::FromPfvQuantile(q, tree.options().quantile_z);
  const std::vector<uint32_t> candidates = queries.RangeCandidates(query_rect);

  // Oracle: brute-force intersection test.
  std::set<uint32_t> expected;
  for (uint32_t i = 0; i < pfvs.size(); ++i) {
    if (Rect::FromPfvQuantile(pfvs[i], 1.96).Intersects(query_rect)) {
      expected.insert(i);
    }
  }
  EXPECT_EQ(std::set<uint32_t>(candidates.begin(), candidates.end()), expected);
}

TEST_F(XTreeTest, KnnMeansMatchesBruteForce) {
  XTree tree(&pool_, 3);
  PfvFile file(&pool_, 3);
  Rng rng(84);
  for (uint64_t i = 0; i < 1200; ++i) {
    const Pfv pfv = RandomPfv(rng, i, 3);
    file.Append(pfv);
    tree.Insert(pfv, static_cast<uint32_t>(i));
  }
  tree.Finalize();
  XTreeQueries queries(&tree, &file);
  SeqScan scan(&file);

  for (int trial = 0; trial < 10; ++trial) {
    const Pfv q = RandomPfv(rng, 9000 + trial, 3);
    const auto tree_knn = queries.QueryKnnMeans(q, 7);
    const auto brute_knn = scan.QueryKnnMeans(q, 7);
    EXPECT_EQ(tree_knn, brute_knn);
  }
}

TEST_F(XTreeTest, MliqFindsNearOptimalAnswers) {
  // The rectangle filter admits false dismissals (paper acknowledges this),
  // but in-range answers must match the exact method most of the time.
  XTree tree(&pool_, 3);
  PfvFile file(&pool_, 3);
  Rng rng(85);
  PfvDataset dataset(3);
  for (uint64_t i = 0; i < 2000; ++i) {
    dataset.Add(RandomPfv(rng, i, 3));
    file.Append(dataset[i]);
    tree.Insert(dataset[i], static_cast<uint32_t>(i));
  }
  tree.Finalize();
  XTreeQueries queries(&tree, &file);
  SeqScan scan(&file);

  int agreements = 0;
  const int trials = 20;
  for (int trial = 0; trial < trials; ++trial) {
    // Queries generated from database objects (realistic identification).
    const size_t source = rng.UniformInt(2000);
    std::vector<double> mu(3), sigma(3);
    for (size_t j = 0; j < 3; ++j) {
      mu[j] = rng.Gaussian(dataset[source].mu[j], dataset[source].sigma[j]);
      sigma[j] = rng.Uniform(0.005, 0.1);
    }
    const Pfv q(7000 + trial, std::move(mu), std::move(sigma));
    const MliqResult approx = queries.QueryMliq(q, 1);
    const MliqResult exact = scan.QueryMliq(q, 1);
    if (!approx.items.empty() && !exact.items.empty() &&
        approx.items[0].id == exact.items[0].id) {
      ++agreements;
    }
  }
  EXPECT_GE(agreements, trials * 8 / 10);  // "only slightly below" the G-tree
}

TEST_F(XTreeTest, TiqProbabilitiesNormalizedOverCandidates) {
  XTree tree(&pool_, 2);
  PfvFile file(&pool_, 2);
  Rng rng(86);
  for (uint64_t i = 0; i < 800; ++i) {
    const Pfv pfv = RandomPfv(rng, i, 2);
    file.Append(pfv);
    tree.Insert(pfv, static_cast<uint32_t>(i));
  }
  tree.Finalize();
  XTreeQueries queries(&tree, &file);
  const Pfv q = RandomPfv(rng, 3000, 2);
  const TiqResult result = queries.QueryTiq(q, 0.05);
  double total = 0.0;
  for (const auto& item : result.items) {
    EXPECT_GE(item.probability, 0.05);
    total += item.probability;
  }
  EXPECT_LE(total, 1.0 + 1e-9);
}

TEST(XTreeSupernodeTest, HighDimClusteredDataCreatesSupernodes) {
  // High-dimensional overlapping rectangles make overlap-free directory
  // splits impossible — the X-tree must fall back to supernodes.
  InMemoryPageDevice device(2048);
  ShardedBufferPool pool(&device, 1 << 14, /*num_shards=*/1);
  XTree tree(&pool, 12);
  Rng rng(87);
  for (uint64_t i = 0; i < 3000; ++i) {
    std::vector<double> mu(12), sigma(12);
    for (double& m : mu) m = rng.Uniform(0, 1);
    for (double& s : sigma) s = rng.Uniform(0.2, 0.5);  // huge boxes: overlap
    tree.Insert(Pfv(i, std::move(mu), std::move(sigma)),
                static_cast<uint32_t>(i));
  }
  tree.Validate();
  EXPECT_GT(tree.supernode_count(), 0u);
  tree.Finalize();
  tree.Validate();  // supernode serialization spans pages correctly
}

TEST(XTreeEdgeTest, EmptyTreeQueries) {
  InMemoryPageDevice device(2048);
  ShardedBufferPool pool(&device, 64, /*num_shards=*/1);
  XTree tree(&pool, 2);
  PfvFile file(&pool, 2);
  tree.Finalize();
  XTreeQueries queries(&tree, &file);
  const Pfv q(1, {0.5, 0.5}, {0.1, 0.1});
  EXPECT_TRUE(queries.QueryMliq(q, 3).items.empty());
  EXPECT_TRUE(queries.QueryTiq(q, 0.5).items.empty());
  EXPECT_TRUE(queries.QueryKnnMeans(q, 3).empty());
}

}  // namespace
}  // namespace gauss
