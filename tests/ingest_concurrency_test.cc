// Concurrency tests for live ingest (api/serving_engine.h), under the
// `concurrency` ctest label so the tsan/asan presets inherit them: the
// epoch-reclamation protocol (deterministic: in-flight queries admitted to
// the old epoch must all complete while a merge retires it), the full
// concurrent insert + query + background-merge stress, typed kDeltaFull
// backpressure, multi-session engine sharing — and the lifecycle fix that
// Serve()-then-Insert() without ingest reports typed kFinalized instead of
// aborting the process.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "api/gauss_db.h"
#include "data/generators.h"
#include "delta_scan_reference.h"
#include "gausstree/delta_tree.h"
#include "net/shard_backend.h"
#include "service_test_util.h"

namespace gauss {
namespace {

PfvDataset MakeDataset(size_t size, size_t dim, uint64_t seed) {
  ClusteredDatasetConfig config;
  config.size = size;
  config.dim = dim;
  config.cluster_count = 6;
  config.seed = seed;
  return GenerateClusteredDataset(config);
}

std::vector<Pfv> MakeExtras(size_t count, size_t dim, uint64_t first_id,
                            uint64_t seed) {
  const PfvDataset raw = MakeDataset(count, dim, seed);
  std::vector<Pfv> extras;
  extras.reserve(count);
  for (size_t i = 0; i < raw.size(); ++i) {
    Pfv pfv = raw[i];
    pfv.id = first_id + i;
    extras.push_back(std::move(pfv));
  }
  return extras;
}

// The satellite lifecycle fix: enrolling against a statically served
// database is an operational race, not API misuse — it must come back as
// InsertResult{kFinalized}, never abort, with or without a session.
TEST(IngestLifecycleTest, InsertAfterServeReportsTypedFinalized) {
  const PfvDataset dataset = MakeDataset(200, 3, /*seed=*/11);
  GaussDb db = GaussDb::CreateInMemory(3);
  db.Build(dataset);
  Session session = db.Serve({.num_workers = 2});

  const Pfv late(999999, std::vector<double>(3, 0.5),
                 std::vector<double>(3, 0.1));
  const InsertResult via_db = db.Insert(late);
  EXPECT_EQ(via_db.outcome, InsertOutcome::kFinalized);
  EXPECT_FALSE(via_db.ok());
  EXPECT_FALSE(static_cast<bool>(via_db));
  EXPECT_FALSE(via_db.message.empty());
  EXPECT_STREQ(InsertOutcomeName(via_db.outcome), "finalized");

  const InsertResult via_session = session.Insert(late);
  EXPECT_EQ(via_session.outcome, InsertOutcome::kFinalized);

  // The static session reports zeroed ingest counters, not garbage.
  const IngestStats stats = session.ingest_stats();
  EXPECT_EQ(stats.delta_size, 0u);
  EXPECT_EQ(stats.epoch, 0u);
  EXPECT_FALSE(session.live_ingest());

  // The database still serves.
  const auto response = session.Submit(Query::Mliq(dataset[0], 3)).get();
  EXPECT_EQ(response.status, QueryResponse::Status::kOk);
}

// Malformed input stays typed in every phase.
TEST(IngestLifecycleTest, MalformedInsertsReportTypedErrors) {
  GaussDb db = GaussDb::CreateInMemory(3);
  const Pfv wrong_dim(1, std::vector<double>(4, 0.5),
                      std::vector<double>(4, 0.1));
  EXPECT_EQ(db.Insert(wrong_dim).outcome, InsertOutcome::kDimensionMismatch);
  Pfv bad_sigma(2, std::vector<double>(3, 0.5), std::vector<double>(3, 0.1));
  bad_sigma.sigma[1] = 0.0;
  EXPECT_EQ(db.Insert(bad_sigma).outcome, InsertOutcome::kInvalidPfv);
  // Valid build-phase insert still routes to the tree.
  const Pfv good(3, std::vector<double>(3, 0.5), std::vector<double>(3, 0.1));
  const InsertResult built = db.Insert(good);
  EXPECT_EQ(built.outcome, InsertOutcome::kRoutedToBuild);
  EXPECT_TRUE(built.ok());
  EXPECT_EQ(db.size(), 1u);
}

// Deterministic epoch reclamation: admit a wave of queries against epoch 1,
// then merge on this thread. RetireEpoch must wait for that wave (the old
// coordinator drains before its stacks die), so every future completes kOk
// even though its epoch was superseded mid-flight; queries admitted after
// the merge run against epoch 2. No sleeps, no timing assumptions — under
// tsan this is the reclamation race made reliably visible.
TEST(IngestConcurrencyTest, EpochReclamationDrainsInFlightQueries) {
  const PfvDataset base = MakeDataset(600, 3, /*seed=*/21);
  const std::vector<Pfv> extras =
      MakeExtras(64, 3, /*first_id=*/500000, /*seed=*/22);

  GaussDbOptions options;
  options.shards.num_shards = 2;
  options.ingest.enabled = true;
  options.ingest.delta_capacity = 256;
  options.ingest.merge_policy = MergePolicy::kManual;
  GaussDb db = GaussDb::CreateInMemory(3, options);
  db.Build(base);
  Session live = db.Serve({.num_workers = 2});

  for (const Pfv& pfv : extras) {
    ASSERT_EQ(db.Insert(pfv).outcome, InsertOutcome::kRoutedToDelta);
  }
  ASSERT_EQ(live.ingest_stats().epoch, 1u);

  // A wave of streaming queries admitted to epoch 1...
  std::vector<std::future<QueryResponse>> in_flight;
  for (size_t i = 0; i < 32; ++i) {
    in_flight.push_back(
        live.Submit(Query::Mliq(extras[i % extras.size()], 3)));
  }
  // ...raced by the epoch swap + retirement.
  ASSERT_TRUE(db.MergeIngest());
  EXPECT_EQ(live.ingest_stats().epoch, 2u);
  EXPECT_EQ(live.ingest_stats().delta_size, 0u);

  for (std::future<QueryResponse>& future : in_flight) {
    const QueryResponse response = future.get();
    EXPECT_EQ(response.status, QueryResponse::Status::kOk);
  }
  // Queries after the swap see the merged base: same object count.
  EXPECT_EQ(db.size(), base.size() + extras.size());
  const auto after = live.Submit(Query::Mliq(extras[0], 1)).get();
  ASSERT_EQ(after.status, QueryResponse::Status::kOk);
  ASSERT_EQ(after.items.size(), 1u);
  EXPECT_EQ(after.items[0].id, extras[0].id);
}

// The acceptance stress: inserters, query threads, and the background merge
// thread all running against one engine. Everything must stay typed and
// race-free (tsan/asan inherit this test), every accepted insert must be in
// the database at the end, and at least three merges must complete while
// queries run. Each delta holds 64 objects, so two shards' deltas drain at
// most 128 of the 300 inserts per merge. From the second merge on, a merge
// writes into pages an earlier epoch served from — over an in-memory
// device, pages lent to that epoch's caches as frames — so a merge that
// wrote into a page an epoch still reads would show up here as a race or
// a failed query.
TEST(IngestConcurrencyTest, ConcurrentInsertQueryMergeStress) {
  constexpr size_t kInserters = 2;
  constexpr size_t kPerInserter = 150;
  const PfvDataset base = MakeDataset(500, 3, /*seed=*/31);

  GaussDbOptions options;
  options.shards.num_shards = 2;
  options.ingest.enabled = true;
  options.ingest.delta_capacity = 64;
  options.ingest.merge_threshold = 48;
  options.ingest.merge_policy = MergePolicy::kBackground;
  GaussDb db = GaussDb::CreateInMemory(3, options);
  db.Build(base);
  Session live = db.Serve({.num_workers = 4});

  std::atomic<bool> done{false};
  std::atomic<uint64_t> accepted{0};
  std::atomic<uint64_t> queried{0};

  std::vector<std::thread> inserters;
  for (size_t t = 0; t < kInserters; ++t) {
    inserters.emplace_back([&db, &accepted, t] {
      const std::vector<Pfv> extras = MakeExtras(
          kPerInserter, 3, /*first_id=*/600000 + t * 100000, /*seed=*/40 + t);
      for (const Pfv& pfv : extras) {
        for (;;) {
          const InsertResult result = db.Insert(pfv);
          if (result.outcome == InsertOutcome::kRoutedToDelta) {
            accepted.fetch_add(1, std::memory_order_relaxed);
            break;
          }
          // Backpressure: the merge is behind; yield and retry.
          ASSERT_EQ(result.outcome, InsertOutcome::kDeltaFull)
              << result.message;
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      }
    });
  }

  std::vector<std::thread> queriers;
  for (size_t t = 0; t < 2; ++t) {
    queriers.emplace_back([&live, &base, &done, &queried, t] {
      size_t i = t;
      while (!done.load(std::memory_order_relaxed)) {
        const QueryResponse response =
            live.Submit(Query::Mliq(base[i % base.size()], 3)).get();
        ASSERT_EQ(response.status, QueryResponse::Status::kOk);
        ASSERT_LE(response.stats.denominator_lo,
                  response.stats.denominator_hi);
        queried.fetch_add(1, std::memory_order_relaxed);
        i += 7;
      }
    });
  }

  for (std::thread& thread : inserters) thread.join();
  // Drain whatever the background thread has not merged yet, queries still
  // running, then verify nothing was lost across all the epoch swaps.
  db.MergeIngest();
  test::SpinUntil([&db] { return db.ingest_stats().delta_size == 0; });
  done.store(true, std::memory_order_relaxed);
  for (std::thread& thread : queriers) thread.join();

  EXPECT_EQ(accepted.load(), kInserters * kPerInserter);
  EXPECT_GT(queried.load(), 0u);
  EXPECT_EQ(db.size(), base.size() + kInserters * kPerInserter);
  EXPECT_GE(db.ingest_stats().merges_completed, 3u);
  EXPECT_EQ(db.ingest_stats().inserts_accepted,
            kInserters * kPerInserter);
}

// Typed backpressure: a full delta rejects with kDeltaFull until a merge
// drains it, and the rejected object is genuinely not in the database.
TEST(IngestConcurrencyTest, DeltaFullBackpressureIsTypedAndRecoverable) {
  const PfvDataset base = MakeDataset(100, 3, /*seed=*/51);
  GaussDbOptions options;
  options.ingest.enabled = true;
  options.ingest.delta_capacity = 4;
  options.ingest.merge_policy = MergePolicy::kManual;
  GaussDb db = GaussDb::CreateInMemory(3, options);
  db.Build(base);
  Session live = db.Serve({.num_workers = 2});

  const std::vector<Pfv> extras =
      MakeExtras(5, 3, /*first_id=*/700000, /*seed=*/52);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(db.Insert(extras[i]).outcome, InsertOutcome::kRoutedToDelta);
  }
  const InsertResult full = db.Insert(extras[4]);
  EXPECT_EQ(full.outcome, InsertOutcome::kDeltaFull);
  EXPECT_FALSE(full.ok());
  EXPECT_EQ(db.size(), base.size() + 4);
  EXPECT_EQ(live.ingest_stats().merge_backlog, 4u);  // kManual: all buffered

  ASSERT_TRUE(db.MergeIngest());
  EXPECT_EQ(db.Insert(extras[4]).outcome, InsertOutcome::kRoutedToDelta);
  EXPECT_EQ(db.size(), base.size() + 5);
}

// Background merges are not only threshold-driven: with a delta that fills
// before the buffered total reaches merge_threshold (4 slots against the
// default 1024), the rejected insert itself must wake the merge thread, or
// the delta stays full and every later insert reports kDeltaFull forever.
TEST(IngestConcurrencyTest, FullDeltaBelowThresholdWakesBackgroundMerge) {
  const PfvDataset base = MakeDataset(100, 3, /*seed=*/71);
  GaussDbOptions options;
  options.ingest.enabled = true;
  options.ingest.delta_capacity = 4;
  options.ingest.merge_policy = MergePolicy::kBackground;
  ASSERT_GT(options.ingest.merge_threshold, options.ingest.delta_capacity);
  GaussDb db = GaussDb::CreateInMemory(3, options);
  db.Build(base);
  Session live = db.Serve({.num_workers = 2});

  const std::vector<Pfv> extras =
      MakeExtras(5, 3, /*first_id=*/750000, /*seed=*/72);
  for (size_t i = 0; i < 4; ++i) {
    ASSERT_EQ(live.Insert(extras[i]).outcome, InsertOutcome::kRoutedToDelta);
  }
  EXPECT_EQ(live.Insert(extras[4]).outcome, InsertOutcome::kDeltaFull);

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (live.ingest_stats().merges_completed == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(live.ingest_stats().merges_completed, 1u);
  EXPECT_EQ(live.Insert(extras[4]).outcome, InsertOutcome::kRoutedToDelta);
  EXPECT_EQ(db.size(), base.size() + 5);
}

// Serve() called twice with ingest: both sessions share one engine — an
// insert through either is visible to both, and both survive a merge.
TEST(IngestConcurrencyTest, RepeatedServeSharesOneEngine) {
  const PfvDataset base = MakeDataset(150, 3, /*seed=*/61);
  GaussDbOptions options;
  options.ingest.enabled = true;
  options.ingest.merge_policy = MergePolicy::kManual;
  GaussDb db = GaussDb::CreateInMemory(3, options);
  db.Build(base);
  Session first = db.Serve({.num_workers = 2});
  Session second = db.Serve({.num_workers = 2});

  const std::vector<Pfv> extras =
      MakeExtras(8, 3, /*first_id=*/800000, /*seed=*/62);
  for (const Pfv& pfv : extras) {
    ASSERT_EQ(first.Insert(pfv).outcome, InsertOutcome::kRoutedToDelta);
  }
  EXPECT_EQ(second.ingest_stats().delta_size, extras.size());
  EXPECT_EQ(first.ingest_stats().epoch, second.ingest_stats().epoch);

  ASSERT_TRUE(db.MergeIngest());
  for (Session* session : {&first, &second}) {
    const auto response =
        session->Submit(Query::Mliq(extras[3], 1).Accuracy(1e-4)).get();
    ASSERT_EQ(response.status, QueryResponse::Status::kOk);
    ASSERT_EQ(response.items.size(), 1u);
    EXPECT_EQ(response.items[0].id, extras[3].id);
  }
}

// DeltaBackend::Start while a writer appends: each Start answers bit for
// bit like the full scan of the prefix it snapshotted. The writer keeps
// widening the sigma range (alternate objects' sigmas grow and shrink with
// their index), so a scan that read a range older than its prefix could
// bound the newest objects wrongly. Under tsan via the `concurrency` label.
TEST(IngestConcurrencyTest, DeltaStartDuringAppendsMatchesFullScan) {
  constexpr size_t kDim = 6;
  constexpr size_t kObjects = 768;
  std::vector<Pfv> objects = MakeExtras(kObjects, kDim, 5000, 91);
  for (size_t i = 0; i < kObjects; ++i) {
    const double widen = i % 2 == 0 ? 1.0 + 0.01 * double(i)
                                    : 1.0 / (1.0 + 0.01 * double(i));
    for (double& sigma : objects[i].sigma) sigma *= widen;
  }
  const std::vector<Pfv> probes = MakeExtras(8, kDim, 0, 92);
  auto delta = std::make_shared<DeltaTree>(kDim, kObjects);
  DeltaBackend backend(delta, SigmaPolicy::kConvolution);

  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (const Pfv& pfv : objects) {
      ASSERT_TRUE(delta->Append(pfv));
      if (pfv.id % 64 == 0) std::this_thread::yield();
    }
    done.store(true);
  });
  std::vector<std::thread> readers;
  std::atomic<size_t> mismatches{0};
  std::atomic<size_t> scans{0};
  for (uint64_t r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      uint64_t handle = r << 32;
      size_t i = 0;
      while (!done.load() || i < 64) {
        const Pfv& probe = probes[i++ % probes.size()];
        const Query query = i % 2 == 0 ? Query::Mliq(probe, 3)
                                       : Query::Tiq(probe, 0.2);
        const ShardPartial got = backend.Start(++handle, query).get().partial;
        const ShardPartial want = test::FullDeltaScan(
            *delta, got.tree_size, query, SigmaPolicy::kConvolution);
        if (!test::SamePartial(got, want)) mismatches.fetch_add(1);
        scans.fetch_add(1);
        backend.Release({handle});
      }
    });
  }
  writer.join();
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_GT(scans.load(), 0u);
}

}  // namespace
}  // namespace gauss
