// Serving-layer tests for the sharded front door (ShardCoordinator + the
// GaussDb sharded Session): deterministic admission control (shed at a full
// coordinator queue, expiry while queued — counted once, never per shard),
// merged ServiceStats/IoStats totals, destructor drain with in-flight
// cross-shard scatter-gathers, and answer consistency under concurrent
// submitters. Runs under TSan (`cmake --workflow --preset tsan`) and
// ASan/UBSan (`--preset asan`).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "api/gauss_db.h"
#include "api/partitioner.h"
#include "common/cpus.h"
#include "common/log_sum_exp.h"
#include "data/generators.h"
#include "data/paper_datasets.h"
#include "data/workload.h"
#include "gausstree/delta_tree.h"
#include "gausstree/gauss_tree.h"
#include "math/hull.h"
#include "net/shard_backend.h"
#include "service/query.h"
#include "service/query_service.h"
#include "service/shard_coordinator.h"
#include "service_test_util.h"
#include "storage/page_device.h"
#include "storage/sharded_buffer_pool.h"

namespace gauss {
namespace {

using test::ExpectItemsBytesEqual;
using test::GatedPageCache;
using test::SpinUntil;
using test::UnsafePageCache;

// Hand-wired two-shard stack: the gallery cut spatially over two trees on
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

    const std::vector<std::vector<uint32_t>> parts = SplitSpatial(
        dataset_, 2, GtCapacities::ForPageSize(kDefaultPageSize, kDim).leaf);
    for (size_t s = 0; s < 2; ++s) {
      ShardedBufferPool build_pool(&devices_[s], 1 << 14, /*num_shards=*/1);
      GaussTree tree(&build_pool, kDim);
      tree.BulkLoad(dataset_, parts[s]);
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
// single coordinator thread pinned inside an in-flight scatter (its shard 0
// traversal gated) and the front-door queue full, a deadline query is shed; a
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
  // f0 is popped by the coordinator thread, which runs both shards'
  // traversals itself; shard 0's blocks at the gate — so the coordinator
  // thread is pinned mid-scatter.
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

  // Let f2's budget lapse, then release the gated shard traversal.
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
// batch run of the same queries — interleaving shard traversals across
// coordinator threads leaves no trace in the results.
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

// In-process backends run to completion on the calling thread: with the
// shard's only worker held busy, Start, Refine and FetchSketch still
// complete, and their futures are ready when the call returns. Each Refine
// call counts as one round of its specs.
TEST_F(ShardServingTest, InProcessBackendRunsOnTheCallingThread) {
  ShardedBufferPool pool(&devices_[0], 1 << 12);
  auto tree = GaussTree::Open(&pool, metas_[0]);
  QueryService service(*tree, {.num_workers = 1});
  InProcessBackend backend(&service);

  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::future<QueryResponse> busy = service.SubmitWork([released] {
    released.wait();
    return QueryResponse{};
  });

  const Query mliq = Query::Mliq(workload_[0].query, 3).Accuracy(0.5);
  const Query tiq = Query::Tiq(workload_[1].query, 0.2).Accuracy(0.5);
  std::future<ShardBackend::StartResult> started_mliq = backend.Start(1, mliq);
  std::future<ShardBackend::StartResult> started_tiq = backend.Start(2, tiq);
  ASSERT_EQ(started_mliq.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  ASSERT_EQ(started_tiq.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  const ShardBackend::StartResult start_mliq = started_mliq.get();
  const ShardBackend::StartResult start_tiq = started_tiq.get();
  ASSERT_TRUE(start_mliq.error.ok());
  ASSERT_TRUE(start_tiq.error.ok());
  EXPECT_FALSE(start_mliq.partial.items.empty());

  std::future<ShardBackend::RefineResult> refined =
      backend.Refine({{1, 0.0}, {2, 0.0}});
  ASSERT_EQ(refined.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  const ShardBackend::RefineResult refine = refined.get();
  ASSERT_TRUE(refine.error.ok());
  ASSERT_EQ(refine.updates.size(), 2u);
  EXPECT_EQ(refine.updates[0].denominator_lo, refine.updates[0].denominator_hi);
  EXPECT_TRUE(refine.updates[0].exhausted);
  EXPECT_EQ(backend.refine_counters().rounds, 1u);
  EXPECT_EQ(backend.refine_counters().requests, 2u);

  const ShardBackend::SketchResult sketch = backend.FetchSketch();
  ASSERT_TRUE(sketch.error.ok());
  EXPECT_EQ(sketch.sketch.tree_size, tree->size());

  // Nothing above went through the held worker.
  EXPECT_NE(busy.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  release.set_value();
  busy.get();
  backend.Release({1, 2});
}

// Every coordinator thread traverses an in-process shard's tree, so a
// backend over a cache that is not thread-safe is refused at construction,
// even when the shard's own service runs one worker.
TEST_F(ShardServingTest, InProcessBackendRefusesAnUnsafeCache) {
  // Re-executed, not forked: the child starts the service's worker thread.
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  EXPECT_DEATH(
      {
        ShardedBufferPool pool(&devices_[0], 1 << 12);
        UnsafePageCache cache(&pool);
        auto tree = GaussTree::Open(&cache, metas_[0]);
        QueryService service(*tree, {.num_workers = 1});
        InProcessBackend backend(&service);
      },
      "thread-safe PageCache");
}

// A Refine naming a handle the backend does not hold — one it never
// started, or one already released — fails the round typed, with no
// updates, instead of aborting; the other handles of the batch are not
// refined either.
TEST_F(ShardServingTest, InProcessBackendRefusesUnknownHandlesTyped) {
  ShardedBufferPool pool(&devices_[0], 1 << 12);
  auto tree = GaussTree::Open(&pool, metas_[0]);
  QueryService service(*tree, {.num_workers = 1});
  InProcessBackend backend(&service);

  const ShardBackend::RefineResult never_started =
      backend.Refine({{7, 0.0}}).get();
  EXPECT_EQ(never_started.error.code, NetErrorCode::kProtocolError);
  EXPECT_TRUE(never_started.updates.empty());

  const Query mliq = Query::Mliq(workload_[0].query, 3).Accuracy(0.5);
  const ShardBackend::StartResult started = backend.Start(1, mliq).get();
  ASSERT_TRUE(started.error.ok());
  const uint64_t reads = tree->pool()->stats().logical_reads;
  const ShardBackend::RefineResult mixed =
      backend.Refine({{1, 0.0}, {7, 0.0}}).get();
  EXPECT_EQ(mixed.error.code, NetErrorCode::kProtocolError);
  EXPECT_TRUE(mixed.updates.empty());
  EXPECT_EQ(tree->pool()->stats().logical_reads, reads);

  backend.Release({1});
  const ShardBackend::RefineResult released =
      backend.Refine({{1, 0.0}}).get();
  EXPECT_EQ(released.error.code, NetErrorCode::kProtocolError);
  EXPECT_TRUE(released.updates.empty());
  // Releasing it again is a no-op.
  backend.Release({1});
}

// DeltaBackend answers a Refine naming a handle it does not hold the same
// way: a typed kProtocolError with no updates, instead of an abort.
TEST(DeltaBackendTest, RefusesUnknownHandlesTyped) {
  const PaperDataset data = GeneratePaperDataset2(64);
  auto delta = std::make_shared<DeltaTree>(data.dataset.dim(), 64);
  for (const Pfv& pfv : data.dataset.objects()) ASSERT_TRUE(delta->Append(pfv));
  DeltaBackend backend(delta, SigmaPolicy::kConvolution);

  const ShardBackend::RefineResult never_started =
      backend.Refine({{7, 0.0}}).get();
  EXPECT_EQ(never_started.error.code, NetErrorCode::kProtocolError);
  EXPECT_TRUE(never_started.updates.empty());

  const Query mliq = Query::Mliq(data.dataset.objects()[5], 3);
  const ShardBackend::StartResult started = backend.Start(1, mliq).get();
  ASSERT_TRUE(started.error.ok());
  const ShardBackend::RefineResult mixed =
      backend.Refine({{1, 0.0}, {7, 0.0}}).get();
  EXPECT_EQ(mixed.error.code, NetErrorCode::kProtocolError);
  EXPECT_TRUE(mixed.updates.empty());

  const ShardBackend::RefineResult known = backend.Refine({{1, 0.0}}).get();
  ASSERT_TRUE(known.error.ok());
  ASSERT_EQ(known.updates.size(), 1u);
  EXPECT_EQ(known.updates[0].denominator_lo, started.partial.denominator_lo);
  EXPECT_TRUE(known.updates[0].exhausted);

  backend.Release({1});
  const ShardBackend::RefineResult released =
      backend.Refine({{1, 0.0}}).get();
  EXPECT_EQ(released.error.code, NetErrorCode::kProtocolError);
  EXPECT_TRUE(released.updates.empty());
  // Releasing it again is a no-op.
  backend.Release({1});
}

// Eight concurrent clients over a four-shard spatial session, on the
// end-to-end benchmark's Figure 7 mix (half MLIQ k = 1 at accuracy 1e-2, a
// quarter each of lazy TIQ at 0.8 and 0.2): every answer is byte-identical
// to a sequential pass, though the coordinator threads now run every
// shard traversal themselves.
TEST(ShardServingConcurrencyTest,
     SpatialShardsUnderConcurrentClientsMatchSequential) {
  const PaperDataset data = GeneratePaperDataset2(4000);
  const std::vector<IdentificationQuery> workload =
      GeneratePaperWorkload(data, 64);
  std::vector<Query> queries;
  for (size_t i = 0; i < workload.size(); ++i) {
    const Pfv& probe = workload[i].query;
    switch (i % 4) {
      case 0:
      case 1:
        queries.push_back(Query::Mliq(probe, 1).Accuracy(1e-2));
        break;
      case 2:
        queries.push_back(Query::Tiq(probe, 0.8).ExactMembership(false));
        break;
      default:
        queries.push_back(Query::Tiq(probe, 0.2).ExactMembership(false));
    }
  }

  GaussDbOptions options;
  options.shards.num_shards = 4;
  GaussDb db = GaussDb::CreateInMemory(data.dataset.dim(), options);
  db.Build(data.dataset);
  Session session = db.Serve({.num_workers = 4, .queue_capacity = 1024});

  std::vector<QueryResponse> sequential;
  for (const Query& query : queries) {
    sequential.push_back(session.Submit(query).get());
    ASSERT_EQ(sequential.back().status, QueryResponse::Status::kOk);
  }

  constexpr size_t kClients = 8;
  std::vector<std::vector<QueryResponse>> answers(kClients);
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      // Each client walks the queries from its own offset, so different
      // queries overlap on the coordinator threads.
      std::vector<std::future<QueryResponse>> futures(queries.size());
      for (size_t n = 0; n < queries.size(); ++n) {
        const size_t i = (n + c * 8) % queries.size();
        futures[i] = session.Submit(queries[i]);
      }
      for (std::future<QueryResponse>& f : futures) {
        answers[c].push_back(f.get());
      }
    });
  }
  for (std::thread& t : clients) t.join();

  for (size_t c = 0; c < kClients; ++c) {
    for (size_t i = 0; i < queries.size(); ++i) {
      SCOPED_TRACE("client " + std::to_string(c) + " query " +
                   std::to_string(i));
      ASSERT_EQ(answers[c][i].status, QueryResponse::Status::kOk);
      ExpectItemsBytesEqual(answers[c][i].items, sequential[i].items);
    }
  }
}

// A local sharded session runs min(num_workers, usable CPUs) coordinator
// threads (num_workers = 0 reads as usable CPUs), while num_workers() still
// reports the per-shard pools; an unsharded session has no coordinator.
TEST_F(ShardServingTest, CoordinatorThreadsFollowTheServeBudget) {
  const size_t cpus = UsableCpus();
  GaussDbOptions options;
  options.shards.num_shards = 2;
  GaussDb db = GaussDb::CreateInMemory(kDim, options);
  db.Build(dataset_);
  for (const size_t k : {size_t{0}, size_t{1}, size_t{2}, cpus + 2}) {
    SCOPED_TRACE("num_workers " + std::to_string(k));
    Session session = db.Serve({.num_workers = k});
    const size_t budget = k == 0 ? cpus : k;
    EXPECT_EQ(session.coordinator_threads(), std::min(budget, cpus));
    EXPECT_EQ(session.num_workers(), 2 * std::max<size_t>(1, budget / 2));
  }

  GaussDb single = GaussDb::CreateInMemory(kDim);
  single.Build(dataset_);
  EXPECT_EQ(single.Serve({.num_workers = 2}).coordinator_threads(), 0u);

  ShardedBufferPool pool(&devices_[0], 1 << 12);
  auto tree = GaussTree::Open(&pool, metas_[0]);
  QueryService service(*tree, {.num_workers = 1});
  InProcessBackend backend(&service);
  EXPECT_EQ(ShardCoordinator({&backend}, {.num_threads = 3}).num_threads(),
            3u);
  EXPECT_EQ(ShardCoordinator({&backend}, {.num_threads = 0}).num_threads(),
            1u);
}

// A backend that forwards to an in-process shard but can fail its Starts
// with a typed error, counting the Starts and Releases it sees.
class FailableBackend : public ShardBackend {
 public:
  explicit FailableBackend(QueryService* service) : inner_(service) {}

  void set_fail(bool fail) { fail_ = fail; }
  // Inverts the mu bounds of the first sketch entry's first dimension.
  void set_damage_sketch(bool damage) { damage_sketch_ = damage; }
  size_t starts() const { return starts_; }
  size_t releases() const { return releases_; }

  size_t dim() const override { return inner_.dim(); }
  std::future<StartResult> Start(uint64_t traversal,
                                 const Query& query) override {
    ++starts_;
    if (!fail_) return inner_.Start(traversal, query);
    std::promise<StartResult> failed;
    failed.set_value({NetError{NetErrorCode::kPeerClosed, "shard went away"},
                      ShardPartial{}});
    return failed.get_future();
  }
  std::future<RefineResult> Refine(std::vector<RefineSpec> specs) override {
    return inner_.Refine(std::move(specs));
  }
  void Release(const std::vector<uint64_t>& traversals) override {
    releases_ += traversals.size();
    inner_.Release(traversals);
  }
  StatsResult FetchStats() override { return inner_.FetchStats(); }
  SketchResult FetchSketch() override {
    SketchResult result = inner_.FetchSketch();
    if (damage_sketch_ && !result.sketch.entries.empty()) {
      DimBounds& b = result.sketch.entries[0].bounds[0];
      b.mu_lo = b.mu_hi + 1.0;
    }
    return result;
  }
  BackendRefineCounters refine_counters() const override {
    return inner_.refine_counters();
  }

 private:
  InProcessBackend inner_;
  std::atomic<bool> fail_{false};
  std::atomic<bool> damage_sketch_{false};
  std::atomic<size_t> starts_{0};
  std::atomic<size_t> releases_{0};
};

// A failed seed fails the query with the typed error before any other
// shard starts, and every handle is released; the next query is unaffected.
TEST_F(ShardServingTest, SeedStartFailureFailsTypedAndReleasesEveryHandle) {
  ShardedBufferPool pool0(&devices_[0], 1 << 12);
  ShardedBufferPool pool1(&devices_[1], 1 << 12);
  auto tree0 = GaussTree::Open(&pool0, metas_[0]);
  auto tree1 = GaussTree::Open(&pool1, metas_[1]);
  QueryService shard0(*tree0, {.num_workers = 1});
  QueryService shard1(*tree1, {.num_workers = 1});
  FailableBackend backend0(&shard0);
  FailableBackend backend1(&shard1);
  ShardCoordinator coordinator(
      std::vector<ShardBackend*>{&backend0, &backend1}, {.num_threads = 1});

  for (const bool mliq : {true, false}) {
    SCOPED_TRACE(mliq ? "mliq" : "tiq");
    const Query query =
        mliq ? Query::Mliq(workload_[0].query, 3).RefineProbabilities(false)
             : Query::Tiq(workload_[0].query, 0.2);
    backend0.set_fail(true);
    backend1.set_fail(true);
    const size_t starts = backend0.starts() + backend1.starts();
    const size_t releases = backend0.releases() + backend1.releases();
    const QueryResponse failed = coordinator.Submit(query).get();
    EXPECT_EQ(failed.status, QueryResponse::Status::kShardError);
    EXPECT_EQ(failed.error.code, NetErrorCode::kPeerClosed);
    // Only the seed started; both handles were released.
    EXPECT_EQ(backend0.starts() + backend1.starts(), starts + 1);
    EXPECT_EQ(backend0.releases() + backend1.releases(), releases + 2);

    backend0.set_fail(false);
    backend1.set_fail(false);
    const QueryResponse ok = coordinator.Submit(query).get();
    EXPECT_EQ(ok.status, QueryResponse::Status::kOk);
    EXPECT_EQ(backend0.starts() + backend1.starts(), starts + 3);
  }
  EXPECT_EQ(coordinator.seed_counts()[0] + coordinator.seed_counts()[1], 2u);
}

// A sketch whose bounds are no MBR can only come from a damaged or hostile
// shard. It is refused like a failed fetch: the coordinator plans without
// sketches (so no seeded Start) and finds the objects, with the densities,
// that one over honest shards finds. (The probabilities are certified
// intervals whose exact values follow the refinement path.)
TEST_F(ShardServingTest, InvalidSketchBoundsDisablePlanning) {
  ShardedBufferPool pool0(&devices_[0], 1 << 12);
  ShardedBufferPool pool1(&devices_[1], 1 << 12);
  auto tree0 = GaussTree::Open(&pool0, metas_[0]);
  auto tree1 = GaussTree::Open(&pool1, metas_[1]);
  QueryService shard0(*tree0, {.num_workers = 1});
  QueryService shard1(*tree1, {.num_workers = 1});
  FailableBackend honest0(&shard0), honest1(&shard1);
  FailableBackend damaged0(&shard0), damaged1(&shard1);
  damaged1.set_damage_sketch(true);
  ShardCoordinator honest(std::vector<ShardBackend*>{&honest0, &honest1},
                          {.num_threads = 1});
  ShardCoordinator refused(std::vector<ShardBackend*>{&damaged0, &damaged1},
                           {.num_threads = 1});
  for (const IdentificationQuery& iq : workload_) {
    for (const Query& query :
         {Query::Mliq(iq.query, 3), Query::Tiq(iq.query, 0.2)}) {
      const QueryResponse want = honest.Submit(query).get();
      const QueryResponse got = refused.Submit(query).get();
      ASSERT_EQ(want.status, QueryResponse::Status::kOk);
      ASSERT_EQ(got.status, QueryResponse::Status::kOk);
      ASSERT_EQ(got.items.size(), want.items.size());
      for (size_t i = 0; i < got.items.size(); ++i) {
        EXPECT_EQ(got.items[i].id, want.items[i].id);
        EXPECT_EQ(std::memcmp(&got.items[i].log_density,
                              &want.items[i].log_density, sizeof(double)),
                  0);
      }
    }
  }
  EXPECT_GT(honest.seed_counts()[0] + honest.seed_counts()[1], 0u);
  EXPECT_EQ(refused.seed_counts()[0] + refused.seed_counts()[1], 0u);
}

// ------------------ seeded Start under concurrent enrollment ----------------
//
// A live query sees every enrollment acknowledged before its admission, and
// may also see some that were still being appended: each delta snapshots its
// size at its own Start. LiveAnswer records that window, extras[lo, hi), and
// the oracle accepts the answer when some subset of the window, added to
// base + extras[0, lo), reproduces it exactly.
struct LiveAnswer {
  Query query = Query::Mliq(Pfv(), 1);
  QueryResponse response;
  size_t lo = 0;
  size_t hi = 0;
};

constexpr double kLiveThreshold = 0.2;

bool MatchesSomeVisibleSet(const LiveAnswer& answer, const PfvDataset& base,
                           const std::vector<Pfv>& extras) {
  using Scored = std::pair<double, uint64_t>;  // (log density, id)
  const Pfv& q = answer.query.pfv();
  const auto score = [&q](const Pfv& v) -> Scored {
    return {PfvJointLogDensity(v, q, SigmaPolicy::kConvolution), v.id};
  };
  const auto denser = [](const Scored& a, const Scored& b) {
    return a.first > b.first;
  };
  // Everything the query must have seen: its denominator and, since more
  // objects only raise the denominator, every object that could still be
  // in the answer (MLIQ: the top k; TIQ: anything qualifying against this
  // smallest denominator).
  LogSumExp fixed_total;
  std::vector<Scored> fixed;
  for (const Pfv& v : base.objects()) fixed.push_back(score(v));
  for (size_t i = 0; i < answer.lo; ++i) fixed.push_back(score(extras[i]));
  for (const Scored& x : fixed) fixed_total.Add(x.first);
  std::stable_sort(fixed.begin(), fixed.end(), denser);
  const bool mliq = answer.query.kind() == QueryKind::kMliq;
  const size_t k = mliq ? answer.query.k() : 0;
  std::vector<Scored> leaders;
  for (const Scored& x : fixed) {
    if (mliq ? leaders.size() == k
             : std::exp(x.first - fixed_total.LogTotal()) < kLiveThreshold) {
      break;
    }
    leaders.push_back(x);
  }
  std::vector<Scored> window;
  for (size_t i = answer.lo; i < answer.hi; ++i) window.push_back(score(extras[i]));

  const std::vector<IdentificationResult>& got = answer.response.items;
  for (uint64_t mask = 0; mask < (uint64_t{1} << window.size()); ++mask) {
    LogSumExp total = fixed_total;
    std::vector<Scored> candidates = leaders;
    for (size_t w = 0; w < window.size(); ++w) {
      if ((mask >> w & 1) == 0) continue;
      total.Add(window[w].first);
      candidates.push_back(window[w]);
    }
    std::stable_sort(candidates.begin(), candidates.end(), denser);
    const double log_total = total.LogTotal();
    std::vector<Scored> want;
    for (const Scored& x : candidates) {
      if (mliq ? want.size() == k
               : std::exp(x.first - log_total) < kLiveThreshold) {
        continue;
      }
      want.push_back(x);
    }
    bool same = want.size() == got.size();
    for (size_t i = 0; same && i < want.size(); ++i) {
      same = got[i].id == want[i].second;
      // Refined MLIQ probabilities are certified: the exact value lies in
      // the reported interval.
      if (same && mliq) {
        same = std::fabs(got[i].probability -
                         std::exp(want[i].first - log_total)) <=
               got[i].probability_error + 1e-12;
      }
    }
    if (same) return true;
  }
  return false;
}

// Many threads submit MLIQ and TIQ through a 4-shard spatial live session
// while an enroller appends and background merges swap epochs. Every
// answer goes through the seeded Start (4 sketched base shards) with the
// deltas started beside the seed, and every answer must be exactly the
// oracle's over a set of objects the query could have seen. (TSan watches
// the seed/delta Start ordering here.)
TEST(ShardServingConcurrencyTest, SeededStartUnderEnrollmentMatchesOracle) {
  constexpr size_t kDim = 3;
  constexpr size_t kExtras = 160;
  constexpr size_t kClients = 4;
  constexpr size_t kMaxAnswersPerClient = 200;
  // The enroller's pacing (below) bounds every window to this.
  constexpr size_t kMaxWindow = 4;

  ClusteredDatasetConfig config;
  config.size = 800;
  config.dim = kDim;
  config.cluster_count = 8;
  config.seed = 91;
  const PfvDataset base = GenerateClusteredDataset(config);
  config.size = kExtras;
  config.seed = 92;
  const PfvDataset raw_extras = GenerateClusteredDataset(config);
  std::vector<Pfv> extras;
  for (size_t i = 0; i < raw_extras.size(); ++i) {
    Pfv pfv = raw_extras[i];
    pfv.id = 1'000'000 + i;
    extras.push_back(std::move(pfv));
  }

  GaussDbOptions options;
  options.shards.num_shards = 4;
  options.ingest.enabled = true;
  options.ingest.delta_capacity = 64;
  options.ingest.merge_threshold = 40;
  options.ingest.merge_policy = MergePolicy::kBackground;
  GaussDb db = GaussDb::CreateInMemory(kDim, options);
  db.Build(base);
  Session live = db.Serve({.num_workers = 4});

  std::atomic<size_t> acked{0};
  std::atomic<bool> done{false};
  // The enroller paces itself by the clients: after each enrollment it waits
  // until every client still running has answered once more. A query then
  // spans at most one enrollment beside the ones in flight at its two ends,
  // so its window stays within kMaxWindow however slowly the build runs.
  std::vector<std::atomic<size_t>> answered(kClients);
  std::vector<std::atomic<bool>> finished(kClients);
  std::thread enroller([&] {
    std::vector<size_t> seen(kClients);
    for (size_t i = 0; i < extras.size(); ++i) {
      for (size_t c = 0; c < kClients; ++c) {
        seen[c] = answered[c].load(std::memory_order_acquire);
      }
      for (;;) {
        const InsertOutcome outcome = live.Insert(extras[i]).outcome;
        if (outcome == InsertOutcome::kRoutedToDelta) break;
        ASSERT_EQ(outcome, InsertOutcome::kDeltaFull);
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      acked.store(i + 1, std::memory_order_release);
      for (size_t c = 0; c < kClients; ++c) {
        while (answered[c].load(std::memory_order_acquire) == seen[c] &&
               !finished[c].load(std::memory_order_acquire)) {
          std::this_thread::sleep_for(std::chrono::microseconds(100));
        }
      }
    }
    done.store(true, std::memory_order_release);
  });

  std::vector<std::vector<LiveAnswer>> answers(kClients);
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (size_t n = 0; n < kMaxAnswersPerClient &&
                         !done.load(std::memory_order_acquire);
           ++n) {
        LiveAnswer answer;
        answer.lo = acked.load(std::memory_order_acquire);
        // Alternate gallery probes with the freshest enrollment.
        const Pfv& probe = (n % 2 == 1 && answer.lo > 0)
                               ? extras[answer.lo - 1]
                               : base[(c * 131 + n * 17) % base.size()];
        answer.query =
            (n + c) % 2 == 0
                ? Query::Mliq(probe, 3).Accuracy(1e-4)
                : Query::Tiq(probe, kLiveThreshold).ExactMembership(true);
        answer.response = live.Submit(answer.query).get();
        answer.hi = std::min(acked.load(std::memory_order_acquire) + 1,
                             extras.size());
        answers[c].push_back(std::move(answer));
        answered[c].fetch_add(1, std::memory_order_release);
      }
      finished[c].store(true, std::memory_order_release);
    });
  }
  for (std::thread& t : clients) t.join();
  enroller.join();

  size_t checked = 0;
  for (size_t c = 0; c < kClients; ++c) {
    for (size_t i = 0; i < answers[c].size(); ++i) {
      const LiveAnswer& answer = answers[c][i];
      SCOPED_TRACE("client " + std::to_string(c) + " answer " +
                   std::to_string(i) + " window [" +
                   std::to_string(answer.lo) + ", " +
                   std::to_string(answer.hi) + ")");
      ASSERT_EQ(answer.response.status, QueryResponse::Status::kOk);
      ASSERT_LE(answer.hi - answer.lo, kMaxWindow);
      EXPECT_TRUE(MatchesSomeVisibleSet(answer, base, extras));
      ++checked;
    }
  }
  EXPECT_GT(checked, kClients);
  EXPECT_EQ(db.ingest_stats().inserts_accepted, kExtras);
}

// The coordinator plans with one batch hull call per sketch (SketchHulls).
// Its values must be the scalar JointLog{Upper,Lower}Hull bits per entry on
// the three kinds of sketch a shard sends: an inner root's child MBRs, a
// leaf root's degenerate per-object entries, and a live delta's.
TEST(SketchHullsTest, EqualsScalarHullsOnEverySketchKind) {
  const PfvDataset dataset = GeneratePaperDataset2(3000).dataset;
  const size_t dim = dataset.dim();
  const auto tree_sketch = [&](size_t n) {
    InMemoryPageDevice device;
    ShardedBufferPool pool(&device, 1 << 12, /*num_shards=*/1);
    GaussTree tree(&pool, dim);
    PfvDataset part(dim);
    for (size_t i = 0; i < n; ++i) part.Add(dataset[i]);
    tree.BulkLoad(part);
    tree.Finalize();
    return BuildShardSketch(tree);
  };
  auto delta = std::make_shared<DeltaTree>(dim, 64);
  for (size_t i = 0; i < 40; ++i) ASSERT_TRUE(delta->Append(dataset[i]));
  DeltaBackend delta_backend(delta, SigmaPolicy::kConvolution);
  const ShardBackend::SketchResult delta_sketch = delta_backend.FetchSketch();
  ASSERT_TRUE(delta_sketch.error.ok());

  struct Kind {
    const char* name;
    ShardSketch sketch;
  };
  const Kind kinds[] = {{"inner root", tree_sketch(dataset.size())},
                        {"leaf root", tree_sketch(20)},
                        {"delta", delta_sketch.sketch}};
  WorkloadConfig wconfig;
  wconfig.query_count = 8;
  wconfig.seed = 23;
  const auto queries = GenerateWorkload(dataset, wconfig);
  for (const Kind& kind : kinds) {
    SCOPED_TRACE(kind.name);
    ASSERT_GT(kind.sketch.entries.size(), 1u);
    const SketchHulls hulls(kind.sketch, dim);
    std::vector<double> upper, lower;
    for (const auto& iq : queries) {
      const Pfv& q = iq.query;
      hulls.Evaluate(q.mu.data(), q.sigma.data(), &upper, &lower);
      ASSERT_EQ(upper.size(), kind.sketch.entries.size());
      for (size_t j = 0; j < upper.size(); ++j) {
        const DimBounds* b = kind.sketch.entries[j].bounds.data();
        const double want_upper = JointLogUpperHull(
            b, q.mu.data(), q.sigma.data(), dim, kind.sketch.sigma_policy);
        const double want_lower = JointLogLowerHull(
            b, q.mu.data(), q.sigma.data(), dim, kind.sketch.sigma_policy);
        EXPECT_EQ(std::memcmp(&upper[j], &want_upper, sizeof(double)), 0)
            << "entry " << j;
        EXPECT_EQ(std::memcmp(&lower[j], &want_lower, sizeof(double)), 0)
            << "entry " << j;
      }
    }
  }
}

}  // namespace
}  // namespace gauss
