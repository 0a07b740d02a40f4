#include <cmath>
#include <set>
#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "bench/insertion_builder.h"
#include "common/random.h"
#include "gausstree/gauss_tree.h"
#include "gausstree/mliq.h"
#include "gausstree/tiq.h"
#include "pfv/pfv_file.h"
#include "scan/seq_scan.h"
#include "storage/page_device.h"
#include "storage/sharded_buffer_pool.h"

namespace gauss {
namespace {

Pfv RandomPfv(Rng& rng, uint64_t id, size_t dim, double sigma_lo,
              double sigma_hi) {
  std::vector<double> mu(dim), sigma(dim);
  for (double& m : mu) m = rng.Uniform(0, 1);
  for (double& s : sigma) s = rng.Uniform(sigma_lo, sigma_hi);
  return Pfv(id, std::move(mu), std::move(sigma));
}

// Parameterized equivalence sweep: (dim, objects, page_size, sigma policy,
// split strategy). For every configuration the Gauss-tree must return
// exactly the sequential scan's answers.
using Config = std::tuple<size_t, size_t, uint32_t, SigmaPolicy, SplitStrategy>;

class EquivalenceSweep : public ::testing::TestWithParam<Config> {};

TEST_P(EquivalenceSweep, TreeEqualsScan) {
  const auto [dim, objects, page_size, policy, strategy] = GetParam();
  InMemoryPageDevice device(page_size);
  ShardedBufferPool pool(&device, 1 << 16, /*num_shards=*/1);
  GaussTreeOptions options;
  options.sigma_policy = policy;
  options.split_strategy = strategy;
  GaussTree tree(&pool, dim, options);
  PfvFile file(&pool, dim);

  Rng rng(1000 + dim * 31 + objects);
  PfvDataset dataset(dim);
  for (uint64_t i = 0; i < objects; ++i) {
    dataset.Add(RandomPfv(rng, i, dim, 0.01, 0.15));
  }
  // The split strategy steers the paper's insertion splits.
  InsertionBuild(&tree, dataset);
  tree.Validate();
  file.AppendAll(dataset);
  SeqScan scan(&file, policy);

  for (int trial = 0; trial < 8; ++trial) {
    const Pfv q = RandomPfv(rng, 90000 + trial, dim, 0.01, 0.15);

    const MliqResult tree_mliq = QueryMliq(tree, q, 3);
    const MliqResult scan_mliq = scan.QueryMliq(q, 3);
    ASSERT_EQ(tree_mliq.items.size(), scan_mliq.items.size());
    for (size_t i = 0; i < tree_mliq.items.size(); ++i) {
      EXPECT_NEAR(tree_mliq.items[i].log_density,
                  scan_mliq.items[i].log_density, 1e-9);
      EXPECT_NEAR(tree_mliq.items[i].probability,
                  scan_mliq.items[i].probability, 1e-5);
    }

    const TiqResult tree_tiq = QueryTiq(tree, q, 0.25);
    const TiqResult scan_tiq = scan.QueryTiq(q, 0.25);
    std::set<uint64_t> tree_ids, scan_ids;
    for (const auto& item : tree_tiq.items) tree_ids.insert(item.id);
    for (const auto& item : scan_tiq.items) scan_ids.insert(item.id);
    EXPECT_EQ(tree_ids, scan_ids);
  }
}

std::string ConfigName(const ::testing::TestParamInfo<Config>& info) {
  const size_t dim = std::get<0>(info.param);
  const size_t objects = std::get<1>(info.param);
  const uint32_t page_size = std::get<2>(info.param);
  const SigmaPolicy policy = std::get<3>(info.param);
  const SplitStrategy strategy = std::get<4>(info.param);
  std::string name = "d" + std::to_string(dim) + "_n" +
                     std::to_string(objects) + "_p" + std::to_string(page_size);
  name += policy == SigmaPolicy::kConvolution ? "_conv" : "_add";
  name += strategy == SplitStrategy::kHullIntegral ? "_hull"
          : strategy == SplitStrategy::kVolume     ? "_vol"
                                                   : "_mu";
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EquivalenceSweep,
    ::testing::Values(
        Config{1, 500, 1024, SigmaPolicy::kConvolution,
               SplitStrategy::kHullIntegral},
        Config{2, 800, 2048, SigmaPolicy::kConvolution,
               SplitStrategy::kHullIntegral},
        Config{3, 1200, 2048, SigmaPolicy::kAdditive,
               SplitStrategy::kHullIntegral},
        Config{5, 1500, 4096, SigmaPolicy::kConvolution,
               SplitStrategy::kVolume},
        Config{8, 1000, 8192, SigmaPolicy::kConvolution,
               SplitStrategy::kMuOnly},
        Config{10, 2000, 8192, SigmaPolicy::kConvolution,
               SplitStrategy::kHullIntegral},
        Config{4, 700, 1024, SigmaPolicy::kAdditive, SplitStrategy::kVolume}),
    ConfigName);

// Heteroscedastic stress: a mix of very certain and very uncertain objects —
// the regime where the Gauss-tree's sigma-aware structure matters most.
TEST(GaussTreePropertyTest, MixedCertaintyEquivalence) {
  InMemoryPageDevice device(4096);
  ShardedBufferPool pool(&device, 1 << 16, /*num_shards=*/1);
  GaussTree tree(&pool, 3);
  PfvFile file(&pool, 3);
  Rng rng(71);
  PfvDataset dataset(3);
  for (uint64_t i = 0; i < 2000; ++i) {
    const bool certain = rng.NextDouble() < 0.5;
    dataset.Add(RandomPfv(rng, i, 3, certain ? 0.001 : 0.2,
                          certain ? 0.01 : 0.8));
  }
  tree.BulkLoad(dataset);
  tree.Finalize();
  file.AppendAll(dataset);
  SeqScan scan(&file);

  for (int trial = 0; trial < 16; ++trial) {
    const Pfv q = RandomPfv(rng, 80000 + trial, 3, 0.001, 0.5);
    const MliqResult a = QueryMliq(tree, q, 5);
    const MliqResult b = scan.QueryMliq(q, 5);
    ASSERT_EQ(a.items.size(), b.items.size());
    for (size_t i = 0; i < a.items.size(); ++i) {
      EXPECT_NEAR(a.items[i].log_density, b.items[i].log_density, 1e-9);
    }
  }
}

// Clustered data (many near-duplicates) still must be exact.
TEST(GaussTreePropertyTest, ClusteredDataEquivalence) {
  InMemoryPageDevice device(4096);
  ShardedBufferPool pool(&device, 1 << 16, /*num_shards=*/1);
  GaussTree tree(&pool, 2);
  PfvFile file(&pool, 2);
  Rng rng(72);
  PfvDataset dataset(2);
  const int clusters = 10;
  for (uint64_t i = 0; i < 2000; ++i) {
    const int c = static_cast<int>(rng.UniformInt(clusters));
    std::vector<double> mu = {0.1 * c + rng.Gaussian(0, 0.005),
                              0.1 * c + rng.Gaussian(0, 0.005)};
    std::vector<double> sigma = {rng.Uniform(0.001, 0.05),
                                 rng.Uniform(0.001, 0.05)};
    dataset.Add(Pfv(i, std::move(mu), std::move(sigma)));
  }
  tree.BulkLoad(dataset);
  tree.Validate();
  tree.Finalize();
  file.AppendAll(dataset);
  SeqScan scan(&file);

  for (int trial = 0; trial < 16; ++trial) {
    const int c = static_cast<int>(rng.UniformInt(clusters));
    const Pfv q(90000 + trial,
                {0.1 * c + rng.Gaussian(0, 0.02), 0.1 * c + rng.Gaussian(0, 0.02)},
                {rng.Uniform(0.005, 0.05), rng.Uniform(0.005, 0.05)});
    const TiqResult a = QueryTiq(tree, q, 0.1);
    const TiqResult b = scan.QueryTiq(q, 0.1);
    std::set<uint64_t> ids_a, ids_b;
    for (const auto& item : a.items) ids_a.insert(item.id);
    for (const auto& item : b.items) ids_b.insert(item.id);
    EXPECT_EQ(ids_a, ids_b);
  }
}

// Insertion-order independence of *results* (structure may differ).
TEST(GaussTreePropertyTest, InsertionOrderDoesNotAffectAnswers) {
  Rng rng(73);
  PfvDataset dataset(2);
  for (uint64_t i = 0; i < 1000; ++i) {
    dataset.Add(RandomPfv(rng, i, 2, 0.01, 0.2));
  }
  const Pfv q = RandomPfv(rng, 99999, 2, 0.01, 0.2);

  auto run = [&](bool reversed) {
    InMemoryPageDevice device(2048);
    ShardedBufferPool pool(&device, 1 << 14, /*num_shards=*/1);
    GaussTree tree(&pool, 2);
    InsertionBuilder builder(&tree);
    if (reversed) {
      for (size_t i = dataset.size(); i-- > 0;) builder.Insert(dataset[i]);
    } else {
      for (size_t i = 0; i < dataset.size(); ++i) builder.Insert(dataset[i]);
    }
    builder.Finish();
    return QueryMliq(tree, q, 5);
  };

  const MliqResult forward = run(false);
  const MliqResult backward = run(true);
  ASSERT_EQ(forward.items.size(), backward.items.size());
  for (size_t i = 0; i < forward.items.size(); ++i) {
    EXPECT_EQ(forward.items[i].id, backward.items[i].id);
    EXPECT_NEAR(forward.items[i].probability, backward.items[i].probability,
                1e-6);
  }
}

// Denominator-bound sanity: the certified interval always brackets the true
// scan denominator-derived probability.
TEST(GaussTreePropertyTest, ProbabilityIntervalsBracketTruth) {
  InMemoryPageDevice device(2048);
  ShardedBufferPool pool(&device, 1 << 14, /*num_shards=*/1);
  GaussTree tree(&pool, 2);
  PfvFile file(&pool, 2);
  Rng rng(74);
  PfvDataset dataset(2);
  for (uint64_t i = 0; i < 1500; ++i) {
    dataset.Add(RandomPfv(rng, i, 2, 0.01, 0.3));
  }
  tree.BulkLoad(dataset);
  tree.Finalize();
  file.AppendAll(dataset);
  SeqScan scan(&file);

  MliqOptions coarse;
  coarse.probability_accuracy = 1e-2;  // deliberately loose
  for (int trial = 0; trial < 16; ++trial) {
    const Pfv q = RandomPfv(rng, 50000 + trial, 2, 0.01, 0.3);
    const MliqResult tree_result = QueryMliq(tree, q, 3, coarse);
    const MliqResult scan_result = scan.QueryMliq(q, 3);
    for (size_t i = 0; i < tree_result.items.size(); ++i) {
      const auto& item = tree_result.items[i];
      const double truth = scan_result.items[i].probability;
      EXPECT_LE(item.probability - item.probability_error, truth + 1e-9);
      EXPECT_GE(item.probability + item.probability_error, truth - 1e-9);
    }
  }
}

}  // namespace
}  // namespace gauss
