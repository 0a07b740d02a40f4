#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "data/generators.h"
#include "data/workload.h"
#include "eval/experiment.h"
#include "eval/metrics.h"
#include "gausstree/gauss_tree.h"
#include "gausstree/mliq.h"
#include "gausstree/tiq.h"
#include "pfv/pfv_file.h"
#include "scan/seq_scan.h"
#include "storage/page_device.h"
#include "storage/sharded_buffer_pool.h"
#include "xtree/xtree.h"
#include "xtree/xtree_queries.h"

namespace gauss {
namespace {

// End-to-end pipeline at reduced scale: generated dataset -> three methods
// (tree / scan / x-tree) -> workload -> effectiveness + cost accounting.
// These are scaled-down versions of the Figure 6 / Figure 7 benches that
// must pass as tests.
class IntegrationTest : public ::testing::Test {
 protected:
  static constexpr size_t kObjects = 4000;
  static constexpr size_t kQueries = 60;

  IntegrationTest()
      : device_(kDefaultPageSize),
        pool_(&device_, 1 << 16, /*num_shards=*/1),
        tree_(&pool_, 10),
        file_(&pool_, 10),
        xtree_(&pool_, 10) {
    // The calibrated data-set-2 surrogate (clustered mixture) at test scale:
    // clustered data is what makes an R-tree-family index prune at all, and
    // the sigma regime is where Euclidean NN degrades while the
    // probabilistic model keeps identifying (paper Figures 6/7).
    ClusteredDatasetConfig config;
    config.size = kObjects;
    config.dim = 10;
    config.cluster_count = 20;
    dataset_ = GenerateClusteredDataset(config);
    sigma_model_ = config.sigma_model;

    file_.AppendAll(dataset_);
    tree_.BulkLoad(dataset_);
    tree_.Finalize();
    for (uint32_t i = 0; i < dataset_.size(); ++i) {
      xtree_.Insert(dataset_[i], i);
    }
    xtree_.Finalize();

    WorkloadConfig wc;
    wc.query_count = kQueries;
    wc.query_sigma_model = sigma_model_;
    workload_ = GenerateWorkload(dataset_, wc);
  }

  SigmaModel sigma_model_;

  InMemoryPageDevice device_;
  ShardedBufferPool pool_;
  GaussTree tree_;
  PfvFile file_;
  XTree xtree_;
  PfvDataset dataset_{10};
  std::vector<IdentificationQuery> workload_;
};

TEST_F(IntegrationTest, MliqIdentifiesAlmostAllQueries) {
  // Paper Figure 6(b): MLIQ precision/recall ~99% on the uniform dataset.
  SeqScan scan(&file_);
  size_t hits = 0;
  for (const auto& iq : workload_) {
    const MliqResult result = QueryMliq(tree_, iq.query, 1);
    ASSERT_EQ(result.items.size(), 1u);
    if (result.items[0].id == iq.true_id) ++hits;
  }
  EXPECT_GE(hits, kQueries * 90 / 100);
}

TEST_F(IntegrationTest, MliqBeatsEuclideanNN) {
  // The headline effectiveness claim: probability ranking beats Euclidean
  // distance on heteroscedastic data.
  SeqScan scan(&file_);
  size_t mliq_hits = 0, nn_hits = 0;
  for (const auto& iq : workload_) {
    const MliqResult mliq = QueryMliq(tree_, iq.query, 1);
    if (!mliq.items.empty() && mliq.items[0].id == iq.true_id) ++mliq_hits;
    const auto nn = scan.QueryKnnMeans(iq.query, 1);
    if (!nn.empty() && nn[0] == iq.true_id) ++nn_hits;
  }
  EXPECT_GT(mliq_hits, nn_hits);
}

TEST_F(IntegrationTest, TreeUsesFewerPagesThanScan) {
  // Paper Figure 7: the Gauss-tree accesses a fraction of the scan's pages.
  DiskModel disk;
  MliqOptions options;
  options.probability_accuracy = 1e-4;
  const MethodCosts tree_costs = RunMethod(
      "gauss-tree", &pool_, disk, workload_.size(),
      CachePolicy::kColdPerQuery, AccessPattern::kRandom, [&](size_t i) {
        return QueryMliq(tree_, workload_[i].query, 1, options).items.size();
      });
  const MethodCosts scan_costs = RunMethod(
      "seq-scan", &pool_, disk, workload_.size(), CachePolicy::kColdPerQuery,
      AccessPattern::kSequential, [&](size_t i) {
        SeqScan scan(&file_);
        return scan.QueryMliq(workload_[i].query, 1).items.size();
      });
  EXPECT_LT(tree_costs.mean.physical_pages, scan_costs.mean.physical_pages);
  EXPECT_LT(tree_costs.PagesPercentOf(scan_costs), 60.0);
}

TEST_F(IntegrationTest, TiqAgreementAcrossAllThreeMethods) {
  SeqScan scan(&file_);
  XTreeQueries xq(&xtree_, &file_);
  size_t xtree_total = 0, xtree_found = 0;
  for (const auto& iq : workload_) {
    const TiqResult tree_result = QueryTiq(tree_, iq.query, 0.2);
    const TiqResult scan_result = scan.QueryTiq(iq.query, 0.2);
    std::set<uint64_t> tree_ids, scan_ids;
    for (const auto& item : tree_result.items) tree_ids.insert(item.id);
    for (const auto& item : scan_result.items) scan_ids.insert(item.id);
    // Gauss-tree is exact.
    EXPECT_EQ(tree_ids, scan_ids);
    // X-tree may have false dismissals but must find most answers.
    const TiqResult x_result = xq.QueryTiq(iq.query, 0.2);
    xtree_total += scan_ids.size();
    for (const auto& item : x_result.items) {
      if (scan_ids.count(item.id) > 0) ++xtree_found;
    }
  }
  if (xtree_total > 0) {
    EXPECT_GE(static_cast<double>(xtree_found),
              0.85 * static_cast<double>(xtree_total));
  }
}

TEST_F(IntegrationTest, EffectivenessMetricsPipeline) {
  // Build ranked lists for scales 1..9 and verify the Figure 6 relationship
  // precision ~ recall / x for the NN method.
  SeqScan scan(&file_);
  std::vector<std::vector<uint64_t>> nn_lists;
  std::vector<uint64_t> truth;
  for (const auto& iq : workload_) {
    nn_lists.push_back(scan.QueryKnnMeans(iq.query, 9));
    truth.push_back(iq.true_id);
  }
  double previous_recall = -1.0;
  for (size_t x = 1; x <= 9; ++x) {
    const PrecisionRecall pr = EvaluateAtScale(nn_lists, truth, x);
    EXPECT_GE(pr.recall, previous_recall);  // recall monotone in x
    previous_recall = pr.recall;
  }
}

TEST_F(IntegrationTest, FilePersistenceRoundTrip) {
  // Build on a file-backed device, reopen, and query — full storage path.
  const std::string path = ::testing::TempDir() + "/gauss_integration.db";
  {
    FilePageDevice file_device(path, kDefaultPageSize, /*truncate=*/true);
    ShardedBufferPool file_pool(&file_device, 1 << 14, /*num_shards=*/1);
    GaussTree disk_tree(&file_pool, 10);
    disk_tree.BulkLoad(dataset_);
    disk_tree.Finalize();
    file_pool.FlushAll();
    file_device.Sync();

    const MliqResult before = QueryMliq(disk_tree, workload_[0].query, 3);
    ASSERT_EQ(before.items.size(), 3u);
    EXPECT_EQ(before.items[0].id, workload_[0].true_id);
  }
  std::remove(path.c_str());
}

TEST_F(IntegrationTest, HistogramDatasetEndToEnd) {
  // Small-scale data set 1 surrogate through the full pipeline.
  HistogramDatasetConfig config;
  config.size = 2000;
  config.dim = 27;
  const PfvDataset histo = GenerateHistogramDataset(config);

  InMemoryPageDevice device(kDefaultPageSize);
  ShardedBufferPool pool(&device, 1 << 16, /*num_shards=*/1);
  GaussTree tree(&pool, 27);
  PfvFile file(&pool, 27);
  tree.BulkLoad(histo);
  tree.Validate();
  tree.Finalize();
  file.AppendAll(histo);
  SeqScan scan(&file);

  WorkloadConfig wc;
  wc.query_count = 30;
  wc.query_sigma_model = config.sigma_model;
  wc.query_sigma_model.scale = ComputeMoments(histo).avg_stddev;
  const auto workload = GenerateWorkload(histo, wc);

  size_t hits = 0;
  for (const auto& iq : workload) {
    const MliqResult tree_result = QueryMliq(tree, iq.query, 1);
    const MliqResult scan_result = scan.QueryMliq(iq.query, 1);
    ASSERT_EQ(tree_result.items.size(), 1u);
    EXPECT_EQ(tree_result.items[0].id, scan_result.items[0].id);
    if (tree_result.items[0].id == iq.true_id) ++hits;
  }
  EXPECT_GE(hits, workload.size() * 8 / 10);
}

}  // namespace
}  // namespace gauss
