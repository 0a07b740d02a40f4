#include <cmath>

#include <gtest/gtest.h>

#include "common/random.h"
#include "pfv/pfv.h"
#include "pfv/pfv_file.h"
#include "storage/page_device.h"
#include "storage/sharded_buffer_pool.h"

namespace gauss {
namespace {

Pfv MakePfv(uint64_t id, std::vector<double> mu, std::vector<double> sigma) {
  return Pfv(id, std::move(mu), std::move(sigma));
}

TEST(PfvTest, ValidityChecks) {
  Pfv good = MakePfv(1, {0.5, 1.0}, {0.1, 0.2});
  EXPECT_TRUE(good.Valid());

  Pfv mismatched;
  mismatched.mu = {1.0, 2.0};
  mismatched.sigma = {0.1};
  EXPECT_FALSE(mismatched.Valid());

  Pfv zero_sigma;
  zero_sigma.mu = {1.0};
  zero_sigma.sigma = {0.0};
  EXPECT_FALSE(zero_sigma.Valid());

  Pfv nan_mu;
  nan_mu.mu = {std::nan("")};
  nan_mu.sigma = {0.1};
  EXPECT_FALSE(nan_mu.Valid());
}

TEST(PfvTest, MeanSquaredDistance) {
  const Pfv a = MakePfv(1, {0.0, 0.0, 0.0}, {1, 1, 1});
  const Pfv b = MakePfv(2, {1.0, 2.0, 2.0}, {1, 1, 1});
  EXPECT_DOUBLE_EQ(MeanSquaredDistance(a, b), 1.0 + 4.0 + 4.0);
}

TEST(PfvTest, JointLogDensitySymmetric) {
  const Pfv a = MakePfv(1, {0.2, 0.8}, {0.1, 0.3});
  const Pfv b = MakePfv(2, {0.3, 0.7}, {0.2, 0.1});
  EXPECT_DOUBLE_EQ(PfvJointLogDensity(a, b), PfvJointLogDensity(b, a));
}

TEST(PfvDatasetTest, AddAndAccess) {
  PfvDataset dataset(2);
  dataset.Add(MakePfv(10, {0.1, 0.2}, {0.01, 0.02}));
  dataset.Add(MakePfv(11, {0.3, 0.4}, {0.03, 0.04}));
  EXPECT_EQ(dataset.size(), 2u);
  EXPECT_EQ(dataset[0].id, 10u);
  EXPECT_EQ(dataset[1].mu[1], 0.4);
}

class PfvFileTest : public ::testing::Test {
 protected:
  PfvFileTest() : device_(1024), pool_(&device_, 64, /*num_shards=*/1) {}

  InMemoryPageDevice device_;
  ShardedBufferPool pool_;
};

TEST_F(PfvFileTest, AppendReadRoundTrip) {
  PfvFile file(&pool_, 3);
  Rng rng(41);
  std::vector<Pfv> originals;
  for (uint64_t i = 0; i < 100; ++i) {
    std::vector<double> mu(3), sigma(3);
    for (double& m : mu) m = rng.Uniform(-10, 10);
    for (double& s : sigma) s = rng.Uniform(0.01, 2.0);
    originals.push_back(MakePfv(i * 7 + 1, mu, sigma));
    file.Append(originals.back());
  }
  EXPECT_EQ(file.size(), 100u);
  for (size_t i = 0; i < originals.size(); ++i) {
    const Pfv read = file.Read(i);
    EXPECT_EQ(read.id, originals[i].id);
    EXPECT_EQ(read.mu, originals[i].mu);
    EXPECT_EQ(read.sigma, originals[i].sigma);
  }
}

TEST_F(PfvFileTest, ForEachVisitsAllInOrder) {
  PfvFile file(&pool_, 2);
  for (uint64_t i = 0; i < 50; ++i) {
    file.Append(MakePfv(i, {static_cast<double>(i), 0.0}, {0.1, 0.1}));
  }
  uint64_t expected = 0;
  file.ForEach([&](const Pfv& pfv) {
    EXPECT_EQ(pfv.id, expected);
    ++expected;
  });
  EXPECT_EQ(expected, 50u);
}

TEST_F(PfvFileTest, PageCountMatchesCapacity) {
  PfvFile file(&pool_, 2);
  // Record: 8 + 2*2*8 = 40 bytes; payload 1020 -> 25 records/page.
  EXPECT_EQ(file.records_per_page(), 25u);
  for (uint64_t i = 0; i < 51; ++i) {
    file.Append(MakePfv(i, {0.0, 0.0}, {0.1, 0.1}));
  }
  EXPECT_EQ(file.page_count(), 3u);  // 25 + 25 + 1
}

TEST_F(PfvFileTest, ScanChargesOneFetchPerPage) {
  PfvFile file(&pool_, 2);
  for (uint64_t i = 0; i < 50; ++i) {
    file.Append(MakePfv(i, {0.0, 0.0}, {0.1, 0.1}));
  }
  pool_.Clear();
  pool_.ResetStats();
  size_t seen = 0;
  file.ForEach([&](const Pfv&) { ++seen; });
  EXPECT_EQ(seen, 50u);
  EXPECT_EQ(pool_.stats().logical_reads, file.page_count());
  EXPECT_EQ(pool_.stats().physical_reads, file.page_count());
}

TEST_F(PfvFileTest, AppendAllMatchesDataset) {
  PfvDataset dataset(2);
  for (uint64_t i = 0; i < 10; ++i) {
    dataset.Add(MakePfv(i, {0.1 * i, 0.2 * i}, {0.5, 0.5}));
  }
  PfvFile file(&pool_, 2);
  file.AppendAll(dataset);
  EXPECT_EQ(file.size(), dataset.size());
  EXPECT_EQ(file.Read(9).mu[0], dataset[9].mu[0]);
}

TEST(PfvFileHighDimTest, WorksAtPaperDimensionality) {
  // 27-d records (440 bytes) on 8 KiB pages: 18 records per page.
  InMemoryPageDevice device(kDefaultPageSize);
  ShardedBufferPool pool(&device, 16, /*num_shards=*/1);
  PfvFile file(&pool, 27);
  EXPECT_EQ(file.records_per_page(), 18u);
  std::vector<double> mu(27, 0.5), sigma(27, 0.05);
  for (uint64_t i = 0; i < 100; ++i) file.Append(Pfv(i, mu, sigma));
  EXPECT_EQ(file.page_count(), 6u);  // ceil(100/18)
}

}  // namespace
}  // namespace gauss
