#include <cmath>

#include <gtest/gtest.h>

#include "common/random.h"
#include "math/gaussian.h"
#include "pfv/pfv_file.h"
#include "scan/seq_scan.h"
#include "storage/page_device.h"
#include "storage/sharded_buffer_pool.h"

namespace gauss {
namespace {

// A tiny hand-checkable database in 1-d.
class SeqScanHandTest : public ::testing::Test {
 protected:
  SeqScanHandTest()
      : device_(1024), pool_(&device_, 64, /*num_shards=*/1), file_(&pool_, 1) {
    // Three objects around the query at 0: an aligned certain one, an
    // aligned uncertain one, and a distant one.
    file_.Append(Pfv(1, {0.0}, {0.1}));   // strong match
    file_.Append(Pfv(2, {0.0}, {1.0}));   // weak (spread-out) match
    file_.Append(Pfv(3, {10.0}, {0.1}));  // essentially excluded
  }

  InMemoryPageDevice device_;
  ShardedBufferPool pool_;
  PfvFile file_;
};

TEST_F(SeqScanHandTest, MliqRanksByJointDensity) {
  SeqScan scan(&file_);
  const Pfv q(0, {0.0}, {0.1});
  const MliqResult result = scan.QueryMliq(q, 3);
  ASSERT_EQ(result.items.size(), 3u);
  EXPECT_EQ(result.items[0].id, 1u);
  EXPECT_EQ(result.items[1].id, 2u);
  EXPECT_EQ(result.items[2].id, 3u);

  // Hand-computed probabilities: densities p1 = N(0;0,sqrt(0.02)),
  // p2 = N(0;0,sqrt(1.01)), p3 = N(10;0,sqrt(0.02)) ~ 0.
  const double p1 = GaussianPdf(0.0, 0.0, std::sqrt(0.1 * 0.1 + 0.1 * 0.1));
  const double p2 = GaussianPdf(0.0, 0.0, std::sqrt(1.0 * 1.0 + 0.1 * 0.1));
  const double total = p1 + p2;  // p3 underflows
  EXPECT_NEAR(result.items[0].probability, p1 / total, 1e-9);
  EXPECT_NEAR(result.items[1].probability, p2 / total, 1e-9);
  EXPECT_NEAR(result.items[2].probability, 0.0, 1e-12);
}

TEST_F(SeqScanHandTest, ProbabilitiesSumToOneOverFullDatabase) {
  SeqScan scan(&file_);
  const Pfv q(0, {0.2}, {0.3});
  const MliqResult result = scan.QueryMliq(q, 3);
  double total = 0.0;
  for (const auto& item : result.items) total += item.probability;
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST_F(SeqScanHandTest, TiqFiltersByThreshold) {
  SeqScan scan(&file_);
  const Pfv q(0, {0.0}, {0.1});
  // With the densities above, P(1) ~ 0.875, P(2) ~ 0.125.
  const TiqResult at_50 = scan.QueryTiq(q, 0.5);
  ASSERT_EQ(at_50.items.size(), 1u);
  EXPECT_EQ(at_50.items[0].id, 1u);

  const TiqResult at_10 = scan.QueryTiq(q, 0.1);
  EXPECT_EQ(at_10.items.size(), 2u);

  const TiqResult at_95 = scan.QueryTiq(q, 0.95);
  EXPECT_TRUE(at_95.items.empty());
}

TEST_F(SeqScanHandTest, TiqResultsSortedDescending) {
  SeqScan scan(&file_);
  const Pfv q(0, {0.0}, {0.5});
  const TiqResult result = scan.QueryTiq(q, 0.01);
  for (size_t i = 1; i < result.items.size(); ++i) {
    EXPECT_GE(result.items[i - 1].probability, result.items[i].probability);
  }
}

TEST_F(SeqScanHandTest, KnnIgnoresUncertainty) {
  SeqScan scan(&file_);
  // Query mean at 0.4: object 1 and 2 share mean 0 (distance 0.4), object 3
  // is at 10. Euclidean NN cannot distinguish 1 from 2 — exactly the
  // limitation the paper's Figure 1 illustrates.
  const Pfv q(0, {0.4}, {0.1});
  const auto knn = scan.QueryKnnMeans(q, 2);
  ASSERT_EQ(knn.size(), 2u);
  EXPECT_TRUE((knn[0] == 1 && knn[1] == 2) || (knn[0] == 2 && knn[1] == 1));
}

TEST(SeqScanTest, TwoPassesChargeScanPagesTwice) {
  InMemoryPageDevice device(1024);
  ShardedBufferPool pool(&device, 4096, /*num_shards=*/1);
  PfvFile file(&pool, 2);
  Rng rng(91);
  for (uint64_t i = 0; i < 500; ++i) {
    std::vector<double> mu = {rng.NextDouble(), rng.NextDouble()};
    std::vector<double> sigma = {0.05, 0.05};
    file.Append(Pfv(i, std::move(mu), std::move(sigma)));
  }
  SeqScan scan(&file);
  const Pfv q(0, {0.5, 0.5}, {0.05, 0.05});

  pool.Clear();
  pool.ResetStats();
  scan.QueryMliq(q, 5);
  EXPECT_EQ(pool.stats().logical_reads, file.page_count());  // single pass

  pool.Clear();
  pool.ResetStats();
  scan.QueryTiq(q, 0.2);
  EXPECT_EQ(pool.stats().logical_reads, 2 * file.page_count());  // two passes
}

TEST(SeqScanTest, EmptyFileReturnsNothing) {
  InMemoryPageDevice device(1024);
  ShardedBufferPool pool(&device, 16, /*num_shards=*/1);
  PfvFile file(&pool, 2);
  SeqScan scan(&file);
  const Pfv q(0, {0.5, 0.5}, {0.05, 0.05});
  EXPECT_TRUE(scan.QueryMliq(q, 3).items.empty());
  EXPECT_TRUE(scan.QueryTiq(q, 0.1).items.empty());
  EXPECT_TRUE(scan.QueryKnnMeans(q, 3).empty());
}

TEST(SeqScanTest, MliqKLargerThanDatabase) {
  InMemoryPageDevice device(1024);
  ShardedBufferPool pool(&device, 16, /*num_shards=*/1);
  PfvFile file(&pool, 1);
  file.Append(Pfv(1, {0.0}, {0.1}));
  file.Append(Pfv(2, {1.0}, {0.1}));
  SeqScan scan(&file);
  const Pfv q(0, {0.5}, {0.1});
  const MliqResult result = scan.QueryMliq(q, 10);
  EXPECT_EQ(result.items.size(), 2u);
}

TEST(SeqScanTest, FigureOneScenario) {
  // The paper's Figure 1 narrative: query with good rotation (F1 exact) but
  // bad illumination (F2 uncertain). O3 (bad rotation, good illumination)
  // must win over O1 (both good) because O3's F1 uncertainty absorbs the F1
  // gap while the query's F2 uncertainty absorbs O3's F2 gap — even though
  // O1 is the Euclidean nearest neighbour.
  InMemoryPageDevice device(1024);
  ShardedBufferPool pool(&device, 16, /*num_shards=*/1);
  PfvFile file(&pool, 2);
  // (F1, F2) with per-feature sigmas. O1 is the Euclidean-nearest mean but
  // its small sigmas cannot absorb the F1 gap against the F1-exact query;
  // O3's large F1 sigma and the query's large F2 sigma absorb O3's gaps.
  file.Append(Pfv(1, {2.6, 1.6}, {0.15, 0.15}));   // O1: certain, off-center
  file.Append(Pfv(2, {1.2, 2.6}, {0.90, 0.90}));   // O2: both uncertain
  file.Append(Pfv(3, {1.8, 4.2}, {0.80, 0.15}));   // O3: F1 uncertain only
  SeqScan scan(&file);
  const Pfv q(0, {3.05, 3.05}, {0.12, 0.85});      // F1 exact, F2 uncertain

  const auto knn = scan.QueryKnnMeans(q, 1);
  const MliqResult mliq = scan.QueryMliq(q, 3);
  ASSERT_EQ(mliq.items.size(), 3u);
  EXPECT_EQ(knn[0], 1u);            // conventional similarity picks O1
  EXPECT_EQ(mliq.items[0].id, 3u);  // the probabilistic model picks O3
  EXPECT_GT(mliq.items[0].probability, mliq.items[1].probability);
  // The conventional method and the probabilistic method disagree:
  EXPECT_NE(knn[0], mliq.items[0].id);
}

}  // namespace
}  // namespace gauss
