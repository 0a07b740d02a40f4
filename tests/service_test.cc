// GaussServe tests: concurrent batch results must be byte-identical to the
// sequential QueryMliq/QueryTiq loops, a multi-threaded stress run over one
// shared sharded pool must be clean (run with -DGAUSS_TSAN=ON to check under
// ThreadSanitizer), and the aggregate ServiceStats must add up.

#include <cmath>
#include <cstring>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "data/generators.h"
#include "data/workload.h"
#include "gausstree/gauss_tree.h"
#include "gausstree/mliq.h"
#include "gausstree/tiq.h"
#include "service/query.h"
#include "service/query_service.h"
#include "service/request_queue.h"
#include "service_test_util.h"
#include "storage/page_device.h"
#include "storage/sharded_buffer_pool.h"

namespace gauss {
namespace {

// One finalized tree on a shared device: built single-threaded through a
// one-stripe pool, then reattached through a default-striped pool for
// serving.
class ServiceTest : public ::testing::Test {
 protected:
  static constexpr size_t kDim = 6;
  static constexpr size_t kObjects = 4000;

  void SetUp() override {
    ClusteredDatasetConfig config;
    config.size = kObjects;
    config.dim = kDim;
    config.cluster_count = 25;
    config.seed = 11;
    dataset_ = GenerateClusteredDataset(config);

    ShardedBufferPool build_pool(&device_, 1 << 14, /*num_shards=*/1);
    GaussTree build_tree(&build_pool, kDim);
    build_tree.BulkLoad(dataset_);
    build_tree.Finalize();
    meta_page_ = build_tree.meta_page();

    WorkloadConfig wconfig;
    wconfig.query_count = 60;
    wconfig.seed = 5;
    workload_ = GenerateWorkload(dataset_, wconfig);
  }

  std::vector<Query> MakeBatch() const { return test::MakeMixedBatch(workload_); }

  InMemoryPageDevice device_;
  PfvDataset dataset_{kDim};
  PageId meta_page_ = kInvalidPageId;
  std::vector<IdentificationQuery> workload_;
};

using test::DirectAnswers;
using test::ExpectItemsBytesEqual;
using test::UnsafePageCache;

TEST_F(ServiceTest, ConcurrentBatchMatchesSequentialQueries) {
  ShardedBufferPool pool(&device_, 1 << 12);
  auto tree = GaussTree::Open(&pool, meta_page_);

  // Sequential ground truth through the plain query entry points.
  const std::vector<Query> batch = MakeBatch();
  const auto expected = DirectAnswers(*tree, batch);

  QueryServiceOptions options;
  options.num_workers = 4;
  QueryService service(*tree, options);
  const BatchResult result = service.ExecuteBatch(batch);

  ASSERT_EQ(result.responses.size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(result.responses[i].kind, batch[i].kind());
    EXPECT_EQ(result.responses[i].status, QueryResponse::Status::kOk);
    ExpectItemsBytesEqual(result.responses[i].items, expected[i]);
  }
}

TEST_F(ServiceTest, RepeatedConcurrentBatchesAreDeterministic) {
  ShardedBufferPool pool(&device_, 1 << 12);
  auto tree = GaussTree::Open(&pool, meta_page_);
  QueryServiceOptions options;
  options.num_workers = 8;
  options.queue_capacity = 16;  // force producer backpressure
  QueryService service(*tree, options);

  const std::vector<Query> batch = MakeBatch();
  const BatchResult first = service.ExecuteBatch(batch);
  for (int round = 0; round < 3; ++round) {
    const BatchResult again = service.ExecuteBatch(batch);
    ASSERT_EQ(again.responses.size(), first.responses.size());
    for (size_t i = 0; i < again.responses.size(); ++i) {
      ExpectItemsBytesEqual(again.responses[i].items, first.responses[i].items);
    }
  }
}

// Stress: many workers over a deliberately tiny shared pool, so frames are
// constantly evicted and re-read while other workers hold pins. Run with
// -DGAUSS_TSAN=ON for the ThreadSanitizer check of the whole serving stack.
TEST_F(ServiceTest, StressTinySharedPoolUnderEvictionChurn) {
  ShardedBufferPool pool(&device_, /*capacity_pages=*/16, /*num_shards=*/4);
  auto tree = GaussTree::Open(&pool, meta_page_);
  QueryServiceOptions options;
  options.num_workers = 8;
  QueryService service(*tree, options);

  const std::vector<Query> batch = MakeBatch();
  const auto expected = DirectAnswers(*tree, batch);

  // Several client threads submitting batches concurrently to one service.
  std::vector<std::thread> clients;
  for (int c = 0; c < 3; ++c) {
    clients.emplace_back([&] {
      for (int round = 0; round < 2; ++round) {
        const BatchResult result = service.ExecuteBatch(batch);
        ASSERT_EQ(result.responses.size(), batch.size());
        for (size_t i = 0; i < batch.size(); ++i) {
          ExpectItemsBytesEqual(result.responses[i].items, expected[i]);
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_GT(pool.stats().evictions, 0u);  // the churn actually happened
}

TEST_F(ServiceTest, StatsTotalsAddUp) {
  ShardedBufferPool pool(&device_, 1 << 12);
  auto tree = GaussTree::Open(&pool, meta_page_);
  QueryServiceOptions options;
  options.num_workers = 4;
  QueryService service(*tree, options);

  const std::vector<Query> batch = MakeBatch();
  const BatchResult result = service.ExecuteBatch(batch);
  const ServiceStats& stats = result.stats;

  // Query-kind counts match the batch composition.
  uint64_t want_mliq = 0, want_tiq = 0;
  for (const Query& query : batch) {
    (query.kind() == QueryKind::kMliq ? want_mliq : want_tiq) += 1;
  }
  EXPECT_EQ(stats.mliq_queries, want_mliq);
  EXPECT_EQ(stats.tiq_queries, want_tiq);
  EXPECT_EQ(stats.total_queries(), batch.size());
  EXPECT_EQ(stats.shed_queries, 0u);
  EXPECT_EQ(stats.deadline_exceeded_queries, 0u);

  // Work totals are the sums of the per-response counters.
  uint64_t nodes = 0, leaves = 0, objects = 0;
  for (const QueryResponse& resp : result.responses) {
    nodes += resp.stats.nodes_visited;
    leaves += resp.stats.leaf_nodes_visited;
    objects += resp.stats.objects_evaluated;
    EXPECT_GT(resp.latency_ns, 0u);
  }
  EXPECT_EQ(stats.nodes_visited, nodes);
  EXPECT_EQ(stats.leaf_nodes_visited, leaves);
  EXPECT_EQ(stats.objects_evaluated, objects);

  // Every query visits at least the root, and every node visit except the
  // pinned root (served from memory, one per query) is a cache fetch, so
  // the batch's logical reads cover the remaining visited nodes.
  EXPECT_GE(stats.nodes_visited, batch.size());
  EXPECT_GE(stats.io.logical_reads, stats.nodes_visited - batch.size());

  EXPECT_EQ(stats.latency.count, batch.size());
  EXPECT_GT(stats.wall_seconds, 0.0);
  EXPECT_GT(stats.qps, 0.0);
  EXPECT_GE(stats.latency.p99_us, stats.latency.p50_us);
  EXPECT_GE(stats.latency.max_us, stats.latency.p99_us);
  EXPECT_GT(stats.pages_per_query(), 0.0);
  EXPECT_FALSE(stats.ToString().empty());
}

TEST_F(ServiceTest, SingleWorkerRunsOverPlainBufferPool) {
  // One worker needs no thread-safe cache; a cache that is not must work.
  ShardedBufferPool pool(&device_, 1 << 12);
  UnsafePageCache cache(&pool);
  auto tree = GaussTree::Open(&cache, meta_page_);
  QueryServiceOptions options;
  options.num_workers = 1;
  QueryService service(*tree, options);
  const std::vector<Query> batch = MakeBatch();
  const BatchResult result = service.ExecuteBatch(batch);
  EXPECT_EQ(result.responses.size(), batch.size());
  EXPECT_EQ(result.stats.total_queries(), batch.size());
}

// Two workers would fetch concurrently, so a cache that is not thread-safe
// is refused at construction.
TEST_F(ServiceTest, MultiWorkerServiceRefusesAnUnsafeCache) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  EXPECT_DEATH(
      {
        ShardedBufferPool pool(&device_, 1 << 12);
        UnsafePageCache cache(&pool);
        auto tree = GaussTree::Open(&cache, meta_page_);
        QueryService service(*tree, {.num_workers = 2});
      },
      "thread-safe PageCache");
}

TEST_F(ServiceTest, EmptyBatchReturnsEmptyResult) {
  ShardedBufferPool pool(&device_, 1 << 12);
  auto tree = GaussTree::Open(&pool, meta_page_);
  QueryService service(*tree, {});
  const BatchResult result = service.ExecuteBatch({});
  EXPECT_TRUE(result.responses.empty());
  EXPECT_EQ(result.stats.total_queries(), 0u);
}

// A real (if never-executed) task to push through queue-level tests.
internal::QueryTask MakeTask() {
  return internal::QueryTask(Query::Mliq(Pfv(0, {0.0}, {1.0}), 1));
}

TEST(RequestQueueTest, PushPopRoundTrip) {
  RequestQueue queue(4);
  internal::QueryTask task = MakeTask();
  EXPECT_TRUE(queue.Push(&task));
  EXPECT_EQ(queue.size(), 1u);
  internal::QueryTask* out = nullptr;
  EXPECT_TRUE(queue.Pop(&out));
  EXPECT_EQ(out, &task);
  EXPECT_EQ(queue.size(), 0u);
}

TEST(RequestQueueTest, CloseDrainsThenRejects) {
  RequestQueue queue(4);
  internal::QueryTask a = MakeTask(), b = MakeTask(), c = MakeTask();
  EXPECT_TRUE(queue.Push(&a));
  EXPECT_TRUE(queue.Push(&b));
  queue.Close();
  EXPECT_TRUE(queue.closed());
  EXPECT_FALSE(queue.Push(&c));  // rejected after close
  internal::QueryTask* out = nullptr;
  EXPECT_TRUE(queue.Pop(&out));  // drained in order
  EXPECT_EQ(out, &a);
  EXPECT_TRUE(queue.Pop(&out));
  EXPECT_EQ(out, &b);
  EXPECT_FALSE(queue.Pop(&out));  // closed and empty
}

TEST(RequestQueueTest, CloseIsIdempotent) {
  RequestQueue queue(2);
  internal::QueryTask a = MakeTask();
  EXPECT_TRUE(queue.Push(&a));
  queue.Close();
  queue.Close();  // second close: no-op, no deadlock, still drains
  queue.Close();
  internal::QueryTask* out = nullptr;
  EXPECT_TRUE(queue.Pop(&out));
  EXPECT_EQ(out, &a);
  EXPECT_FALSE(queue.Pop(&out));
}

TEST(RequestQueueTest, BoundedPushBlocksUntilPop) {
  RequestQueue queue(1);
  internal::QueryTask a = MakeTask(), b = MakeTask();
  EXPECT_TRUE(queue.Push(&a));
  std::thread producer([&] { EXPECT_TRUE(queue.Push(&b)); });
  // The producer is blocked on the full queue until this pop frees a slot.
  internal::QueryTask* out = nullptr;
  EXPECT_TRUE(queue.Pop(&out));
  EXPECT_EQ(out, &a);
  producer.join();
  EXPECT_TRUE(queue.Pop(&out));
  EXPECT_EQ(out, &b);
}

TEST(RequestQueueTest, TryPushRejectsWhenFullWithoutBlocking) {
  RequestQueue queue(2);
  internal::QueryTask a = MakeTask(), b = MakeTask(), c = MakeTask();
  EXPECT_TRUE(queue.TryPush(&a));
  EXPECT_TRUE(queue.TryPush(&b));
  EXPECT_FALSE(queue.TryPush(&c));  // full: immediate rejection, no wait
  internal::QueryTask* out = nullptr;
  EXPECT_TRUE(queue.Pop(&out));
  EXPECT_TRUE(queue.TryPush(&c));  // slot freed: accepted again
  queue.Close();
  internal::QueryTask d = MakeTask();
  EXPECT_FALSE(queue.TryPush(&d));  // closed: rejected
}

}  // namespace
}  // namespace gauss
