// Streaming-path tests for GaussServe: Submit() futures must return answers
// byte-identical to ExecuteBatch() and to the low-level QueryMliq/QueryTiq
// entry points, complete in any gather order, honor per-query deadlines
// (kShed at a full queue, kDeadlineExceeded on expiry) without disturbing
// other queries, and all become ready when the service is destroyed with
// futures outstanding. Runs under ASan/UBSan via `cmake --workflow --preset
// asan` (and under TSan via the tsan preset).

#include <chrono>
#include <condition_variable>
#include <cstring>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "data/generators.h"
#include "data/workload.h"
#include "gausstree/gauss_tree.h"
#include "gausstree/mliq.h"
#include "gausstree/tiq.h"
#include "service/query.h"
#include "service/query_service.h"
#include "service_test_util.h"
#include "storage/page_device.h"
#include "storage/sharded_buffer_pool.h"

namespace gauss {
namespace {

using test::GatedPageCache;
using test::SpinUntil;

class StreamingTest : public ::testing::Test {
 protected:
  static constexpr size_t kDim = 5;
  static constexpr size_t kObjects = 2000;

  void SetUp() override {
    ClusteredDatasetConfig config;
    config.size = kObjects;
    config.dim = kDim;
    config.cluster_count = 15;
    config.seed = 23;
    dataset_ = GenerateClusteredDataset(config);

    ShardedBufferPool build_pool(&device_, 1 << 14, /*num_shards=*/1);
    GaussTree build_tree(&build_pool, kDim);
    build_tree.BulkLoad(dataset_);
    build_tree.Finalize();
    meta_page_ = build_tree.meta_page();

    WorkloadConfig wconfig;
    wconfig.query_count = 40;
    wconfig.seed = 9;
    workload_ = GenerateWorkload(dataset_, wconfig);
  }

  std::vector<Query> MakeBatch() const {
    return test::MakeMixedBatch(workload_);
  }

  InMemoryPageDevice device_;
  PfvDataset dataset_{kDim};
  PageId meta_page_ = kInvalidPageId;
  std::vector<IdentificationQuery> workload_;
};

using test::DirectAnswers;
using test::ExpectItemsBytesEqual;

// Acceptance: the three public query paths — low-level QueryMliq/QueryTiq,
// streaming Submit() futures, and batch ExecuteBatch() — return
// byte-identical answers on the same tree.
TEST_F(StreamingTest, FuturesBatchAndDirectPathsAreByteIdentical) {
  ShardedBufferPool pool(&device_, 1 << 12);
  auto tree = GaussTree::Open(&pool, meta_page_);
  QueryServiceOptions options;
  options.num_workers = 4;
  QueryService service(*tree, options);

  const std::vector<Query> batch = MakeBatch();

  // Path 1: the documented low-level API.
  const auto direct = DirectAnswers(*tree, batch);

  // Path 2: streaming futures.
  std::vector<std::future<QueryResponse>> futures;
  for (const Query& query : batch) futures.push_back(service.Submit(query));

  // Path 3: batch.
  const BatchResult batched = service.ExecuteBatch(batch);

  ASSERT_EQ(batched.responses.size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    const QueryResponse streamed = futures[i].get();
    EXPECT_EQ(streamed.status, QueryResponse::Status::kOk);
    EXPECT_EQ(streamed.kind, batch[i].kind());
    ExpectItemsBytesEqual(streamed.items, direct[i]);
    ExpectItemsBytesEqual(batched.responses[i].items, direct[i]);
  }
}

// Futures can be gathered in any order — completion is per-query, not
// batch-barriered.
TEST_F(StreamingTest, FutureGatherOrderIsIndependentOfSubmissionOrder) {
  ShardedBufferPool pool(&device_, 1 << 12);
  auto tree = GaussTree::Open(&pool, meta_page_);
  QueryServiceOptions options;
  options.num_workers = 3;
  QueryService service(*tree, options);

  const std::vector<Query> batch = MakeBatch();
  const auto direct = DirectAnswers(*tree, batch);

  std::vector<std::future<QueryResponse>> futures;
  for (const Query& query : batch) futures.push_back(service.Submit(query));

  // Gather back-to-front: the last-submitted future is waited on first.
  for (size_t i = futures.size(); i-- > 0;) {
    const QueryResponse resp = futures[i].get();
    EXPECT_EQ(resp.status, QueryResponse::Status::kOk);
    ExpectItemsBytesEqual(resp.items, direct[i]);
  }
}

// A deadline that has already passed is rejected at admission, before
// touching the queue or the tree.
TEST_F(StreamingTest, ExpiredDeadlineIsRejectedAtAdmission) {
  ShardedBufferPool pool(&device_, 1 << 12);
  auto tree = GaussTree::Open(&pool, meta_page_);
  QueryService service(*tree, {.num_workers = 2});

  auto future = service.Submit(
      Query::Mliq(workload_[0].query, 3)
          .Deadline(std::chrono::steady_clock::now() -
                    std::chrono::milliseconds(1)));
  // Completed synchronously by Submit itself.
  ASSERT_EQ(future.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  const QueryResponse resp = future.get();
  EXPECT_EQ(resp.status, QueryResponse::Status::kDeadlineExceeded);
  EXPECT_TRUE(resp.items.empty());
  EXPECT_EQ(resp.stats.nodes_visited, 0u);
}

// The full admission-control matrix, pinned deterministic by gating the page
// cache: a deadline query hitting a full queue is shed, a queued deadline
// query whose budget runs out reports kDeadlineExceeded, and neither
// disturbs the answers of the queries that do execute.
TEST_F(StreamingTest, ShedAndExpiryDoNotDisturbExecutingQueries) {
  ShardedBufferPool pool(&device_, 1 << 12);
  GatedPageCache gated(&pool);
  auto tree = GaussTree::Open(&gated, meta_page_);  // gate open: loads fine

  const MliqResult direct0 = QueryMliq(*tree, workload_[0].query, 3);
  const MliqResult direct1 = QueryMliq(*tree, workload_[1].query, 3);

  QueryServiceOptions options;
  options.num_workers = 1;
  options.queue_capacity = 2;
  QueryService service(*tree, options);

  gated.CloseGate();
  // f0 is popped by the single worker, which then blocks at the gate.
  auto f0 = service.Submit(Query::Mliq(workload_[0].query, 3));
  SpinUntil([&] { return gated.waiting() == 1; });

  // Queue slot 1: a plain query. Slot 2: a deadline query whose budget will
  // expire while it waits (the budget is generous enough that admission —
  // microseconds away — always beats it, even on a loaded machine).
  auto f1 = service.Submit(Query::Mliq(workload_[1].query, 3));
  const auto f2_deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(150);
  auto f2 =
      service.Submit(Query::Mliq(workload_[2].query, 3).Deadline(f2_deadline));

  // Queue now full: a deadline query cannot wait and is shed immediately —
  // while a generous deadline, so kShed (full queue), not expiry.
  auto f3 = service.Submit(
      Query::Tiq(workload_[3].query, 0.2).DeadlineAfter(std::chrono::hours(1)));
  ASSERT_EQ(f3.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  const QueryResponse shed = f3.get();
  EXPECT_EQ(shed.status, QueryResponse::Status::kShed);
  EXPECT_TRUE(shed.items.empty());

  // The gated queries are still outstanding.
  EXPECT_NE(f0.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  EXPECT_NE(f1.wait_for(std::chrono::seconds(0)), std::future_status::ready);

  // Let f2's budget lapse, then open the gate.
  std::this_thread::sleep_until(f2_deadline + std::chrono::milliseconds(10));
  gated.OpenGate();

  const QueryResponse r0 = f0.get();
  const QueryResponse r1 = f1.get();
  const QueryResponse r2 = f2.get();
  EXPECT_EQ(r0.status, QueryResponse::Status::kOk);
  EXPECT_EQ(r1.status, QueryResponse::Status::kOk);
  EXPECT_EQ(r2.status, QueryResponse::Status::kDeadlineExceeded);
  EXPECT_TRUE(r2.items.empty());
  EXPECT_EQ(r2.stats.nodes_visited, 0u);  // expiry costs no traversal

  // The executed answers are exactly the single-threaded ground truth: the
  // admission decisions around them left no trace in the results.
  ExpectItemsBytesEqual(r0.items, direct0.items);
  ExpectItemsBytesEqual(r1.items, direct1.items);
}

// ExecuteBatch aggregates admission-control outcomes into ServiceStats
// without losing the per-query kind counts.
TEST_F(StreamingTest, BatchStatsCountShedAndExpired) {
  ShardedBufferPool pool(&device_, 1 << 12);
  auto tree = GaussTree::Open(&pool, meta_page_);
  QueryService service(*tree, {.num_workers = 2});

  std::vector<Query> batch;
  batch.push_back(Query::Mliq(workload_[0].query, 3));
  batch.push_back(Query::Mliq(workload_[1].query, 3)
                      .Deadline(std::chrono::steady_clock::now() -
                                std::chrono::milliseconds(1)));
  batch.push_back(Query::Tiq(workload_[2].query, 0.2));

  const BatchResult result = service.ExecuteBatch(batch);
  ASSERT_EQ(result.responses.size(), 3u);
  EXPECT_EQ(result.responses[0].status, QueryResponse::Status::kOk);
  EXPECT_EQ(result.responses[1].status,
            QueryResponse::Status::kDeadlineExceeded);
  EXPECT_EQ(result.responses[2].status, QueryResponse::Status::kOk);

  EXPECT_EQ(result.stats.total_queries(), 3u);
  EXPECT_EQ(result.stats.mliq_queries, 2u);
  EXPECT_EQ(result.stats.tiq_queries, 1u);
  EXPECT_EQ(result.stats.shed_queries, 0u);
  EXPECT_EQ(result.stats.deadline_exceeded_queries, 1u);
  EXPECT_EQ(result.stats.latency.count, 2u);  // only executed queries sample
}

// Destroying the service with futures outstanding drains them: every future
// is ready — with the correct answer — once the destructor returns.
TEST_F(StreamingTest, DestructorDrainsOutstandingFutures) {
  ShardedBufferPool pool(&device_, 1 << 12);
  GatedPageCache gated(&pool);
  auto tree = GaussTree::Open(&gated, meta_page_);

  const MliqResult direct0 = QueryMliq(*tree, workload_[0].query, 3);
  const TiqResult direct1 = QueryTiq(*tree, workload_[1].query, 0.2);
  const MliqResult direct2 = QueryMliq(*tree, workload_[2].query, 5);

  QueryServiceOptions options;
  options.num_workers = 1;
  options.queue_capacity = 8;
  auto service = std::make_unique<QueryService>(*tree, options);

  gated.CloseGate();
  auto f0 = service->Submit(Query::Mliq(workload_[0].query, 3));
  SpinUntil([&] { return gated.waiting() == 1; });
  auto f1 = service->Submit(Query::Tiq(workload_[1].query, 0.2));
  auto f2 = service->Submit(Query::Mliq(workload_[2].query, 5));

  // All three genuinely outstanding at destruction time.
  EXPECT_NE(f0.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  EXPECT_NE(f1.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  EXPECT_NE(f2.wait_for(std::chrono::seconds(0)), std::future_status::ready);

  gated.OpenGate();
  service.reset();  // closes the queue, drains, joins

  ASSERT_EQ(f0.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  ASSERT_EQ(f1.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  ASSERT_EQ(f2.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  const QueryResponse r0 = f0.get(), r1 = f1.get(), r2 = f2.get();
  EXPECT_EQ(r0.status, QueryResponse::Status::kOk);
  EXPECT_EQ(r1.status, QueryResponse::Status::kOk);
  EXPECT_EQ(r2.status, QueryResponse::Status::kOk);
  ExpectItemsBytesEqual(r0.items, direct0.items);
  ExpectItemsBytesEqual(r1.items, direct1.items);
  ExpectItemsBytesEqual(r2.items, direct2.items);
}

// Serving through a cache far smaller than the tree (so workers evict and
// re-read pages under each other) returns answers byte-identical to the
// low-level API over the same pool, and costs exactly the same logical page
// accesses — the paper's page-access metric does not depend on the path.
TEST_F(StreamingTest, TreeSmallerCacheIsByteIdenticalWithEqualAccesses) {
  ShardedBufferPool pool(&device_, 16, /*num_shards=*/4);
  auto tree = GaussTree::Open(&pool, meta_page_);
  QueryServiceOptions options;
  options.num_workers = 2;
  QueryService service(*tree, options);

  const std::vector<Query> batch = MakeBatch();
  pool.ResetStats();
  const auto direct = DirectAnswers(*tree, batch);
  const uint64_t direct_logical = pool.stats().logical_reads;
  pool.ResetStats();

  const BatchResult result = service.ExecuteBatch(batch);
  ASSERT_EQ(result.responses.size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(result.responses[i].status, QueryResponse::Status::kOk);
    ExpectItemsBytesEqual(result.responses[i].items, direct[i]);
  }
  EXPECT_GT(direct_logical, 0u);
  EXPECT_EQ(pool.stats().logical_reads, direct_logical);
}

// The fluent descriptor fills exactly the selected variant.
TEST(QueryDescriptorTest, FactoriesAndFluentSettersFillTheRightFields) {
  const Pfv probe(7, {0.5, 0.5}, {0.1, 0.1});

  const Query mliq = Query::Mliq(probe, 4).Accuracy(1e-3);
  EXPECT_EQ(mliq.kind(), QueryKind::kMliq);
  EXPECT_EQ(mliq.pfv().id, 7u);
  EXPECT_EQ(mliq.k(), 4u);
  EXPECT_DOUBLE_EQ(mliq.mliq_options().probability_accuracy, 1e-3);
  EXPECT_FALSE(mliq.has_deadline());

  const Query tiq = Query::Tiq(probe, 0.25).ExactMembership(false);
  EXPECT_EQ(tiq.kind(), QueryKind::kTiq);
  EXPECT_DOUBLE_EQ(tiq.threshold(), 0.25);
  EXPECT_FALSE(tiq.tiq_options().exact_membership);
  EXPECT_FALSE(tiq.tiq_options().refine_probabilities);

  // Accuracy on a TIQ implies probability refinement.
  const Query tiq2 = Query::Tiq(probe, 0.25).Accuracy(1e-2);
  EXPECT_TRUE(tiq2.tiq_options().refine_probabilities);
  EXPECT_DOUBLE_EQ(tiq2.tiq_options().probability_accuracy, 1e-2);

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  const Query timed = Query::Mliq(probe, 1).Deadline(deadline);
  ASSERT_TRUE(timed.has_deadline());
  EXPECT_EQ(timed.deadline(), deadline);

  const Query budgeted =
      Query::Tiq(probe, 0.1).DeadlineAfter(std::chrono::milliseconds(100));
  ASSERT_TRUE(budgeted.has_deadline());
  EXPECT_GT(budgeted.deadline(), std::chrono::steady_clock::now());
}

}  // namespace
}  // namespace gauss
