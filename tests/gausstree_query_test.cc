#include <algorithm>
#include <cmath>
#include <set>

#include <gtest/gtest.h>

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

Pfv RandomPfv(Rng& rng, uint64_t id, size_t dim, double sigma_lo = 0.01,
              double sigma_hi = 0.2) {
  std::vector<double> mu(dim), sigma(dim);
  for (double& m : mu) m = rng.Uniform(0, 1);
  for (double& s : sigma) s = rng.Uniform(sigma_lo, sigma_hi);
  return Pfv(id, std::move(mu), std::move(sigma));
}

// Shared fixture: a dataset loaded both into a Gauss-tree (finalized, paying
// page I/O) and a PfvFile for the sequential-scan oracle.
class GaussTreeQueryTest : public ::testing::Test {
 protected:
  static constexpr size_t kDim = 4;
  static constexpr size_t kObjects = 3000;

  GaussTreeQueryTest()
      : device_(4096),
        pool_(&device_, 4096, /*num_shards=*/1),
        tree_(&pool_, kDim),
        file_(&pool_, kDim),
        scan_(&file_) {
    Rng rng(61);
    PfvDataset dataset(kDim);
    for (uint64_t i = 0; i < kObjects; ++i) {
      dataset.Add(RandomPfv(rng, i, kDim));
    }
    tree_.BulkLoad(dataset);
    tree_.Finalize();
    file_.AppendAll(dataset);
    queries_.reserve(32);
    for (int i = 0; i < 32; ++i) {
      queries_.push_back(RandomPfv(rng, 100000 + i, kDim));
    }
    // Identification-style queries (perturbed database objects): the
    // workload the index is built for, used by the cost-oriented tests.
    id_queries_.reserve(16);
    for (int i = 0; i < 16; ++i) {
      const Pfv& source = dataset[rng.UniformInt(kObjects)];
      std::vector<double> mu(kDim), sigma(kDim);
      for (size_t j = 0; j < kDim; ++j) {
        mu[j] = rng.Gaussian(source.mu[j], source.sigma[j]);
        sigma[j] = rng.Uniform(0.01, 0.2);
      }
      id_queries_.push_back(Pfv(200000 + i, std::move(mu), std::move(sigma)));
    }
  }

  InMemoryPageDevice device_;
  ShardedBufferPool pool_;
  GaussTree tree_;
  PfvFile file_;
  SeqScan scan_;
  std::vector<Pfv> queries_;
  std::vector<Pfv> id_queries_;
};

TEST_F(GaussTreeQueryTest, MliqMatchesSequentialScan) {
  for (const Pfv& q : queries_) {
    const MliqResult tree_result = QueryMliq(tree_, q, 5);
    const MliqResult scan_result = scan_.QueryMliq(q, 5);
    ASSERT_EQ(tree_result.items.size(), scan_result.items.size());
    for (size_t i = 0; i < tree_result.items.size(); ++i) {
      // Densities must match exactly (same arithmetic); ids may differ only
      // on exact density ties.
      EXPECT_NEAR(tree_result.items[i].log_density,
                  scan_result.items[i].log_density, 1e-9);
    }
    // Set equality modulo ties: compare id sets when densities are distinct.
    std::set<uint64_t> tree_ids, scan_ids;
    for (const auto& item : tree_result.items) tree_ids.insert(item.id);
    for (const auto& item : scan_result.items) scan_ids.insert(item.id);
    EXPECT_EQ(tree_ids, scan_ids);
  }
}

TEST_F(GaussTreeQueryTest, MliqProbabilitiesMatchScanWithinAccuracy) {
  MliqOptions options;
  options.probability_accuracy = 1e-9;
  for (const Pfv& q : queries_) {
    const MliqResult tree_result = QueryMliq(tree_, q, 3, options);
    const MliqResult scan_result = scan_.QueryMliq(q, 3);
    ASSERT_EQ(tree_result.items.size(), scan_result.items.size());
    for (size_t i = 0; i < tree_result.items.size(); ++i) {
      EXPECT_NEAR(tree_result.items[i].probability,
                  scan_result.items[i].probability, 1e-6);
      EXPECT_LE(tree_result.items[i].probability_error, 1e-6);
    }
  }
}

TEST_F(GaussTreeQueryTest, MliqVisitsFewerObjectsThanScan) {
  // Phase 1 only (paper Section 5.2.1): determining the k best objects —
  // without certifying their exact probabilities — must touch only a small
  // fraction of the database. (Full probability refinement on *low-dim,
  // slow-decaying* data legitimately needs a large share of the denominator;
  // the accuracy/cost trade-off is exercised by sweep_query_params.)
  MliqOptions options;
  options.refine_probabilities = false;
  uint64_t tree_evals = 0;
  for (const Pfv& q : id_queries_) {
    tree_evals += QueryMliq(tree_, q, 1, options).stats.objects_evaluated;
  }
  // This fixture's data is i.i.d. uniform with wide per-object sigmas — the
  // hardest possible regime for hull pruning — so only a coarse saving is
  // demanded here; realistic (clustered) pruning rates are asserted by the
  // integration suite and measured by the figure benches.
  EXPECT_LT(tree_evals, id_queries_.size() * kObjects / 2);
}

TEST_F(GaussTreeQueryTest, TiqMatchesSequentialScan) {
  for (double threshold : {0.2, 0.5, 0.8}) {
    for (const Pfv& q : queries_) {
      const TiqResult tree_result = QueryTiq(tree_, q, threshold);
      const TiqResult scan_result = scan_.QueryTiq(q, threshold);
      std::set<uint64_t> tree_ids, scan_ids;
      for (const auto& item : tree_result.items) tree_ids.insert(item.id);
      for (const auto& item : scan_result.items) scan_ids.insert(item.id);
      EXPECT_EQ(tree_ids, scan_ids) << "threshold " << threshold;
      for (size_t i = 0; i < tree_result.items.size(); ++i) {
        EXPECT_NEAR(tree_result.items[i].probability,
                    scan_result.items[i].probability, 1e-5);
      }
    }
  }
}

TEST_F(GaussTreeQueryTest, LazyTiqNeverDismissesTrueAnswers) {
  // The paper's Figure 5 stopping rule may return extra borderline
  // candidates but must never drop a qualifying object.
  TiqOptions lazy;
  lazy.exact_membership = false;
  for (double threshold : {0.1, 0.3, 0.6}) {
    for (const Pfv& q : queries_) {
      const TiqResult lazy_result = QueryTiq(tree_, q, threshold, lazy);
      const TiqResult truth = scan_.QueryTiq(q, threshold);
      std::set<uint64_t> lazy_ids;
      for (const auto& item : lazy_result.items) lazy_ids.insert(item.id);
      for (const auto& item : truth.items) {
        EXPECT_TRUE(lazy_ids.count(item.id) > 0)
            << "lazy TIQ dismissed id " << item.id << " at threshold "
            << threshold;
      }
    }
  }
}

TEST_F(GaussTreeQueryTest, LazyTiqCostsNoMoreThanExact) {
  TiqOptions lazy;
  lazy.exact_membership = false;
  uint64_t lazy_evals = 0, exact_evals = 0;
  for (const Pfv& q : id_queries_) {
    lazy_evals += QueryTiq(tree_, q, 0.2, lazy).stats.objects_evaluated;
    exact_evals += QueryTiq(tree_, q, 0.2).stats.objects_evaluated;
  }
  EXPECT_LE(lazy_evals, exact_evals);
}

TEST_F(GaussTreeQueryTest, TiqProbabilitySumsBelowOne) {
  // Paper property 1: the probabilities of all retrieved objects of a TIQ
  // cannot exceed 100%.
  for (const Pfv& q : queries_) {
    const TiqResult result = QueryTiq(tree_, q, 0.05);
    double total = 0.0;
    for (const auto& item : result.items) total += item.probability;
    EXPECT_LE(total, 1.0 + 1e-6);
  }
}

TEST_F(GaussTreeQueryTest, MliqProbabilitiesSumBelowOne) {
  for (const Pfv& q : queries_) {
    const MliqResult result = QueryMliq(tree_, q, 10);
    double total = 0.0;
    for (const auto& item : result.items) total += item.probability;
    EXPECT_LE(total, 1.0 + 1e-6);
  }
}

TEST_F(GaussTreeQueryTest, MliqResultsSortedByProbability) {
  for (const Pfv& q : queries_) {
    const MliqResult result = QueryMliq(tree_, q, 8);
    for (size_t i = 1; i < result.items.size(); ++i) {
      EXPECT_GE(result.items[i - 1].log_density, result.items[i].log_density);
    }
  }
}

TEST_F(GaussTreeQueryTest, SelfQueryOnSteepObjectFindsIt) {
  // Querying with a stored object's own pfv ranks that object first when it
  // is a *steep* (low-sigma) object: p(v|v) = prod 1/(2 sqrt(pi) sigma_i) is
  // then larger than any competitor's density. (For a very flat object a
  // steeper neighbour can legitimately win — that is the model working as
  // intended, not a bug.)
  size_t best_index = 0;
  double best_sigma_sum = 1e300;
  for (size_t i = 0; i < kObjects; ++i) {
    const Pfv v = file_.Read(i);
    double total = 0.0;
    for (double s : v.sigma) total += s;
    if (total < best_sigma_sum) {
      best_sigma_sum = total;
      best_index = i;
    }
  }
  const Pfv steepest = file_.Read(best_index);
  const MliqResult result = QueryMliq(tree_, steepest, 1);
  ASSERT_EQ(result.items.size(), 1u);
  EXPECT_EQ(result.items[0].id, steepest.id);
}

TEST_F(GaussTreeQueryTest, SelfQueryAgreesWithScan) {
  // Whatever the model decides for a self-query, the index must agree with
  // the sequential scan exactly.
  Rng rng(62);
  for (int trial = 0; trial < 10; ++trial) {
    const Pfv v = file_.Read(rng.UniformInt(kObjects));
    const MliqResult a = QueryMliq(tree_, v, 1);
    const MliqResult b = scan_.QueryMliq(v, 1);
    ASSERT_EQ(a.items.size(), 1u);
    EXPECT_EQ(a.items[0].id, b.items[0].id);
  }
}

TEST_F(GaussTreeQueryTest, KEqualsDatabaseSizeReturnsEverything) {
  const MliqResult result = QueryMliq(tree_, queries_[0], kObjects);
  EXPECT_EQ(result.items.size(), kObjects);
  double total = 0.0;
  for (const auto& item : result.items) total += item.probability;
  EXPECT_NEAR(total, 1.0, 1e-5);  // Bayes normalization over the full DB
}

TEST_F(GaussTreeQueryTest, HighThresholdTiqReturnsAtMostOne) {
  // P >= 0.6 can hold for at most one object (probabilities sum to <= 1).
  for (const Pfv& q : queries_) {
    const TiqResult result = QueryTiq(tree_, q, 0.6);
    EXPECT_LE(result.items.size(), 1u);
  }
}

TEST_F(GaussTreeQueryTest, TiqThresholdMonotonicity) {
  for (const Pfv& q : queries_) {
    const size_t at_10 = QueryTiq(tree_, q, 0.10).items.size();
    const size_t at_30 = QueryTiq(tree_, q, 0.30).items.size();
    const size_t at_80 = QueryTiq(tree_, q, 0.80).items.size();
    EXPECT_GE(at_10, at_30);
    EXPECT_GE(at_30, at_80);
  }
}

TEST(GaussTreeQueryEdgeTest, EmptyTreeReturnsNothing) {
  InMemoryPageDevice device(2048);
  ShardedBufferPool pool(&device, 64, /*num_shards=*/1);
  GaussTree tree(&pool, 2);
  const Pfv q(1, {0.5, 0.5}, {0.1, 0.1});
  EXPECT_TRUE(QueryMliq(tree, q, 3).items.empty());
  EXPECT_TRUE(QueryTiq(tree, q, 0.2).items.empty());
}

TEST(GaussTreeQueryEdgeTest, SingleObjectHasProbabilityOne) {
  InMemoryPageDevice device(2048);
  ShardedBufferPool pool(&device, 64, /*num_shards=*/1);
  GaussTree tree(&pool, 2);
  PfvDataset dataset(2);
  dataset.Add(Pfv(9, {0.5, 0.5}, {0.1, 0.1}));
  tree.BulkLoad(dataset);
  tree.Finalize();
  const Pfv q(1, {10.0, -3.0}, {0.2, 0.2});  // far away — still the only one
  const MliqResult result = QueryMliq(tree, q, 1);
  ASSERT_EQ(result.items.size(), 1u);
  EXPECT_EQ(result.items[0].id, 9u);
  EXPECT_NEAR(result.items[0].probability, 1.0, 1e-9);
}

TEST(GaussTreeQueryEdgeTest, FarQueryDegeneratesGracefully) {
  // A query so far away that every density underflows: MLIQ must still
  // return k objects without crashing; TIQ returns nothing.
  InMemoryPageDevice device(2048);
  ShardedBufferPool pool(&device, 256, /*num_shards=*/1);
  GaussTree tree(&pool, 2);
  Rng rng(63);
  PfvDataset dataset(2);
  for (uint64_t i = 0; i < 200; ++i) dataset.Add(RandomPfv(rng, i, 2));
  tree.BulkLoad(dataset);
  tree.Finalize();
  const Pfv q(1, {1e6, -1e6}, {0.1, 0.1});
  const MliqResult mliq = QueryMliq(tree, q, 3);
  EXPECT_EQ(mliq.items.size(), 3u);
  const TiqResult tiq = QueryTiq(tree, q, 0.1);
  EXPECT_TRUE(tiq.items.empty());
}

TEST(GaussTreeQueryEdgeTest, VeryUncertainQueryIsIndifferent) {
  // Paper property 3: sigma -> infinity makes the model maximally
  // indifferent, P(v|q) ~ 1/n for every object.
  InMemoryPageDevice device(4096);
  ShardedBufferPool pool(&device, 1024, /*num_shards=*/1);
  GaussTree tree(&pool, 2);
  Rng rng(64);
  const size_t n = 500;
  PfvDataset dataset(2);
  for (uint64_t i = 0; i < n; ++i) dataset.Add(RandomPfv(rng, i, 2));
  tree.BulkLoad(dataset);
  tree.Finalize();
  const Pfv q(1, {0.5, 0.5}, {1e5, 1e5});
  const MliqResult result = QueryMliq(tree, q, 10);
  for (const auto& item : result.items) {
    EXPECT_NEAR(item.probability, 1.0 / static_cast<double>(n),
                0.1 / static_cast<double>(n));
  }
}

TEST(GaussTreeQueryEdgeTest, AdditivePolicyConsistentWithItsOwnScan) {
  // The whole pipeline must agree with the oracle under the paper-literal
  // additive sigma policy too.
  InMemoryPageDevice device(4096);
  ShardedBufferPool pool(&device, 2048, /*num_shards=*/1);
  GaussTreeOptions options;
  options.sigma_policy = SigmaPolicy::kAdditive;
  GaussTree tree(&pool, 3, options);
  PfvFile file(&pool, 3);
  Rng rng(65);
  PfvDataset dataset(3);
  for (uint64_t i = 0; i < 1000; ++i) dataset.Add(RandomPfv(rng, i, 3));
  tree.BulkLoad(dataset);
  tree.Finalize();
  file.AppendAll(dataset);
  SeqScan scan(&file, SigmaPolicy::kAdditive);
  for (int i = 0; i < 10; ++i) {
    const Pfv q = RandomPfv(rng, 5000 + i, 3);
    const MliqResult a = QueryMliq(tree, q, 4);
    const MliqResult b = scan.QueryMliq(q, 4);
    ASSERT_EQ(a.items.size(), b.items.size());
    std::set<uint64_t> ids_a, ids_b;
    for (const auto& item : a.items) ids_a.insert(item.id);
    for (const auto& item : b.items) ids_b.insert(item.id);
    EXPECT_EQ(ids_a, ids_b);
  }
}

}  // namespace
}  // namespace gauss
