// Serving-layer tests for the sharded front door (ShardCoordinator + the
// GaussDb sharded Session): deterministic admission control (shed at a full
// coordinator queue, expiry while queued — counted once, never per shard),
// merged ServiceStats/IoStats totals, destructor drain with in-flight
// cross-shard scatter-gathers, and answer consistency under concurrent
// submitters. Runs under TSan (`cmake --workflow --preset tsan`) and
// ASan/UBSan (`--preset asan`).

#include <chrono>
#include <functional>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "api/gauss_db.h"
#include "api/partitioner.h"
#include "data/generators.h"
#include "data/workload.h"
#include "gausstree/gauss_tree.h"
#include "service/query.h"
#include "service/query_service.h"
#include "service/shard_coordinator.h"
#include "service_test_util.h"
#include "storage/buffer_pool.h"
#include "storage/page_device.h"
#include "storage/sharded_buffer_pool.h"

namespace gauss {
namespace {

using test::ExpectItemsBytesEqual;
using test::GatedPageCache;
using test::SpinUntil;

// Hand-wired two-shard stack: the gallery hash-partitioned over two trees on
// two devices, exactly what GaussDb does internally — but with the page
// caches exposed so tests can gate shard 0 and pin the coordinator in a
// known state.
class ShardServingTest : public ::testing::Test {
 protected:
  static constexpr size_t kDim = 4;
  static constexpr size_t kObjects = 1200;

  void SetUp() override {
    ClusteredDatasetConfig config;
    config.size = kObjects;
    config.dim = kDim;
    config.cluster_count = 10;
    config.seed = 77;
    dataset_ = GenerateClusteredDataset(config);

    const std::vector<PfvDataset> parts = Partitioner(2).Split(dataset_);
    for (size_t s = 0; s < 2; ++s) {
      BufferPool build_pool(&devices_[s], 1 << 14);
      GaussTree tree(&build_pool, kDim);
      tree.BulkLoad(parts[s]);
      tree.Finalize();
      metas_[s] = tree.meta_page();
    }

    WorkloadConfig wconfig;
    wconfig.query_count = 16;
    wconfig.seed = 5;
    workload_ = GenerateWorkload(dataset_, wconfig);
  }

  InMemoryPageDevice devices_[2];
  PageId metas_[2] = {kInvalidPageId, kInvalidPageId};
  PfvDataset dataset_{kDim};
  std::vector<IdentificationQuery> workload_;
};

// Admission control lives at the coordinator, not at the shards: with the
// single coordinator thread pinned inside an in-flight scatter (shard 0's
// worker gated) and the front-door queue full, a deadline query is shed; a
// queued deadline query whose budget lapses expires without traversal; and
// neither disturbs the queries that execute.
TEST_F(ShardServingTest, FrontDoorShedsAndExpiresDeterministically) {
  ShardedBufferPool pool0(&devices_[0], 1 << 12);
  ShardedBufferPool pool1(&devices_[1], 1 << 12);
  GatedPageCache gated(&pool0);
  auto tree0 = GaussTree::Open(&gated, metas_[0]);  // gate open: loads fine
  auto tree1 = GaussTree::Open(&pool1, metas_[1]);
  QueryService shard0(*tree0, {.num_workers = 1, .queue_capacity = 8});
  QueryService shard1(*tree1, {.num_workers = 1, .queue_capacity = 8});
  InProcessBackend backend0(&shard0);
  InProcessBackend backend1(&shard1);
  ShardCoordinator coordinator(
      std::vector<ShardBackend*>{&backend0, &backend1},
      {.num_threads = 1, .queue_capacity = 2});

  gated.CloseGate();
  // f0 is popped by the coordinator thread, which scatters to both shards;
  // shard 1 answers, shard 0's worker blocks at the gate — so the
  // coordinator thread is pinned in gather.
  auto f0 = coordinator.Submit(Query::Mliq(workload_[0].query, 3));
  SpinUntil([&] { return gated.waiting() == 1; });

  // Front-door queue slot 1: a plain query. Slot 2: a deadline query whose
  // budget will expire while it waits.
  auto f1 = coordinator.Submit(Query::Mliq(workload_[1].query, 3));
  const auto f2_deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(150);
  auto f2 = coordinator.Submit(
      Query::Tiq(workload_[2].query, 0.2).Deadline(f2_deadline));

  // Queue now full: a deadline query cannot wait and is shed immediately.
  auto f3 = coordinator.Submit(
      Query::Mliq(workload_[3].query, 3).DeadlineAfter(std::chrono::hours(1)));
  ASSERT_EQ(f3.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  EXPECT_EQ(f3.get().status, QueryResponse::Status::kShed);

  // Dead on arrival completes synchronously without occupying a slot.
  auto f4 = coordinator.Submit(
      Query::Mliq(workload_[4].query, 3)
          .Deadline(std::chrono::steady_clock::now() -
                    std::chrono::milliseconds(1)));
  ASSERT_EQ(f4.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  EXPECT_EQ(f4.get().status, QueryResponse::Status::kDeadlineExceeded);

  EXPECT_NE(f0.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  EXPECT_NE(f1.wait_for(std::chrono::seconds(0)), std::future_status::ready);

  // Let f2's budget lapse, then release the gated shard worker.
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

  // The executed answers are unaffected by the admission churn around them:
  // a clean run of the same queries through the same coordinator is
  // byte-identical.
  const BatchResult clean = coordinator.ExecuteBatch(
      {Query::Mliq(workload_[0].query, 3), Query::Mliq(workload_[1].query, 3)});
  ExpectItemsBytesEqual(r0.items, clean.responses[0].items);
  ExpectItemsBytesEqual(r1.items, clean.responses[1].items);
}

// Destroying the coordinator with cross-shard queries in flight drains
// them: every future is ready — with a real answer — once the destructor
// returns, and only then may the shard services die.
TEST_F(ShardServingTest, DestructorDrainsInFlightCrossShardQueries) {
  ShardedBufferPool pool0(&devices_[0], 1 << 12);
  ShardedBufferPool pool1(&devices_[1], 1 << 12);
  GatedPageCache gated(&pool0);
  auto tree0 = GaussTree::Open(&gated, metas_[0]);
  auto tree1 = GaussTree::Open(&pool1, metas_[1]);
  QueryService shard0(*tree0, {.num_workers = 1, .queue_capacity = 8});
  QueryService shard1(*tree1, {.num_workers = 1, .queue_capacity = 8});
  InProcessBackend backend0(&shard0);
  InProcessBackend backend1(&shard1);
  auto coordinator = std::make_unique<ShardCoordinator>(
      std::vector<ShardBackend*>{&backend0, &backend1},
      ShardCoordinatorOptions{.num_threads = 1, .queue_capacity = 8});

  gated.CloseGate();
  auto f0 = coordinator->Submit(Query::Mliq(workload_[0].query, 3));
  SpinUntil([&] { return gated.waiting() == 1; });
  auto f1 = coordinator->Submit(Query::Tiq(workload_[1].query, 0.2));
  auto f2 = coordinator->Submit(Query::Mliq(workload_[2].query, 5));

  // All three genuinely outstanding at destruction time.
  EXPECT_NE(f0.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  EXPECT_NE(f1.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  EXPECT_NE(f2.wait_for(std::chrono::seconds(0)), std::future_status::ready);

  gated.OpenGate();
  coordinator.reset();  // closes the front door, drains, joins

  ASSERT_EQ(f0.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  ASSERT_EQ(f1.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  ASSERT_EQ(f2.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  EXPECT_EQ(f0.get().status, QueryResponse::Status::kOk);
  EXPECT_EQ(f1.get().status, QueryResponse::Status::kOk);
  EXPECT_EQ(f2.get().status, QueryResponse::Status::kOk);
}

// Merged ServiceStats must aggregate per-shard I/O and per-query latency
// without double-counting admission outcomes: a query expired at the front
// door is one expired query, not one per shard, and contributes no latency
// sample and no traversal work.
TEST_F(ShardServingTest, MergedStatsCountAdmissionOutcomesOnce) {
  ShardedBufferPool pool0(&devices_[0], 1 << 12);
  ShardedBufferPool pool1(&devices_[1], 1 << 12);
  auto tree0 = GaussTree::Open(&pool0, metas_[0]);
  auto tree1 = GaussTree::Open(&pool1, metas_[1]);
  QueryService shard0(*tree0, {.num_workers = 1, .queue_capacity = 8});
  QueryService shard1(*tree1, {.num_workers = 1, .queue_capacity = 8});
  InProcessBackend backend0(&shard0);
  InProcessBackend backend1(&shard1);
  ShardCoordinator coordinator(
      std::vector<ShardBackend*>{&backend0, &backend1},
      {.num_threads = 2, .queue_capacity = 8});

  std::vector<Query> batch;
  batch.push_back(Query::Mliq(workload_[0].query, 3));
  batch.push_back(Query::Mliq(workload_[1].query, 3)
                      .Deadline(std::chrono::steady_clock::now() -
                                std::chrono::milliseconds(1)));
  batch.push_back(Query::Tiq(workload_[2].query, 0.2));

  IoStats pools_before = pool0.stats();
  pools_before += pool1.stats();
  const BatchResult result = coordinator.ExecuteBatch(batch);
  IoStats pools_after = pool0.stats();
  pools_after += pool1.stats();

  ASSERT_EQ(result.responses.size(), 3u);
  EXPECT_EQ(result.responses[0].status, QueryResponse::Status::kOk);
  EXPECT_EQ(result.responses[1].status,
            QueryResponse::Status::kDeadlineExceeded);
  EXPECT_EQ(result.responses[2].status, QueryResponse::Status::kOk);

  const ServiceStats& stats = result.stats;
  EXPECT_EQ(stats.total_queries(), 3u);
  EXPECT_EQ(stats.mliq_queries, 2u);
  EXPECT_EQ(stats.tiq_queries, 1u);
  EXPECT_EQ(stats.shed_queries, 0u);
  EXPECT_EQ(stats.deadline_exceeded_queries, 1u);  // once, not per shard
  EXPECT_EQ(stats.latency.count, 2u);  // only executed queries sample

  // Traversal totals are the sums over the executed responses (which are
  // themselves summed over both shards).
  EXPECT_EQ(stats.nodes_visited, result.responses[0].stats.nodes_visited +
                                     result.responses[2].stats.nodes_visited);
  EXPECT_GT(result.responses[0].stats.nodes_visited, 0u);
  EXPECT_EQ(result.responses[1].stats.nodes_visited, 0u);

  // The I/O delta is the sum over both shard caches — and both shards
  // really were touched.
  EXPECT_EQ(stats.io.logical_reads,
            pools_after.logical_reads - pools_before.logical_reads);
  EXPECT_GT(stats.io.logical_reads, 0u);
  EXPECT_GT(stats.pages_per_query(), 0.0);
  EXPECT_EQ(coordinator.io_stats().logical_reads, pools_after.logical_reads);
}

// AggregateBatchStats is the one counting rule both QueryService and
// ShardCoordinator batch paths share; pin its totals on a synthetic
// response set covering every admission outcome.
TEST(ShardStatsTest, AggregateBatchStatsPinsTotals) {
  std::vector<QueryResponse> responses(4);
  responses[0].kind = QueryKind::kMliq;
  responses[0].latency_ns = 1000;
  responses[0].stats.nodes_visited = 7;
  responses[1].kind = QueryKind::kTiq;
  responses[1].status = QueryResponse::Status::kShed;
  responses[1].stats.nodes_visited = 0;
  responses[2].kind = QueryKind::kMliq;
  responses[2].status = QueryResponse::Status::kDeadlineExceeded;
  responses[3].kind = QueryKind::kTiq;
  responses[3].latency_ns = 3000;
  responses[3].stats.nodes_visited = 5;

  IoStats io;
  io.logical_reads = 40;
  const ServiceStats stats = AggregateBatchStats(responses, /*wall=*/0.5, io);
  EXPECT_EQ(stats.total_queries(), 4u);
  EXPECT_EQ(stats.mliq_queries, 2u);
  EXPECT_EQ(stats.tiq_queries, 2u);
  EXPECT_EQ(stats.shed_queries, 1u);
  EXPECT_EQ(stats.deadline_exceeded_queries, 1u);
  EXPECT_EQ(stats.latency.count, 2u);  // shed/expired contribute no sample
  EXPECT_EQ(stats.nodes_visited, 12u);  // and no traversal work
  EXPECT_DOUBLE_EQ(stats.pages_per_query(), 10.0);
  EXPECT_DOUBLE_EQ(stats.qps, 8.0);
}

// Concurrent submitters through the GaussDb façade: many threads streaming
// queries into one sharded Session get byte-identical answers to a quiet
// batch run of the same queries — scatter-gather interleaving across
// coordinator threads and shard workers leaves no trace in the results.
// (This is the test TSan watches the coordinator under.)
TEST_F(ShardServingTest, ConcurrentSubmittersSeeConsistentAnswers) {
  GaussDbOptions options;
  options.shards.num_shards = 3;
  GaussDb db = GaussDb::CreateInMemory(kDim, options);
  db.Build(dataset_);
  Session session = db.Serve(
      {.num_workers = 3, .queue_capacity = 256});

  std::vector<Query> queries = test::MakeMixedBatch(workload_);
  const BatchResult reference = session.ExecuteBatch(queries);

  constexpr size_t kClients = 3;
  std::vector<std::vector<std::future<QueryResponse>>> futures(kClients);
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (const Query& query : queries) {
        Query submitted = query;
        if (c == 1) {  // one client exercises the deadline path under load
          submitted.DeadlineAfter(std::chrono::hours(1));
        }
        futures[c].push_back(session.Submit(std::move(submitted)));
      }
    });
  }
  for (std::thread& t : clients) t.join();

  for (size_t c = 0; c < kClients; ++c) {
    for (size_t i = 0; i < queries.size(); ++i) {
      const QueryResponse resp = futures[c][i].get();
      ASSERT_EQ(resp.status, QueryResponse::Status::kOk);
      ExpectItemsBytesEqual(resp.items, reference.responses[i].items);
    }
  }
}

}  // namespace
}  // namespace gauss
