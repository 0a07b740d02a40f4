// Differential harness for live ingest (api/serving_engine.h): randomized
// interleaved insert/query schedules against a rebuild-from-scratch oracle.
// At every interleaving point the live session's MLIQ/TIQ answers must match
// a static GaussDb freshly built from exactly the objects enrolled so far
// (ids and ordering exactly; probabilities within the certified interval
// half-widths when refinement is on) and the seq-scan oracle's id sets —
// with merges (manual and background) swapping the serving epoch
// mid-schedule.
//
// Why this is the acceptance gate: the delta registers as one more backend
// behind the coordinator, so correctness rests on its degenerate
// denominator intervals combining exactly with the base shards' — and on a
// query admitted at time t seeing precisely the enrollments published
// before t, across epoch swaps. Only whole-answer comparison against an
// independently built tree at every interleaving point can see a mistake
// in either.

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "api/gauss_db.h"
#include "common/random.h"
#include "data/generators.h"
#include "pfv/pfv_file.h"
#include "scan/seq_scan.h"
#include "service_test_util.h"
#include "storage/buffer_pool.h"
#include "storage/page_device.h"

namespace gauss {
namespace {

constexpr double kAccuracy = 1e-4;
constexpr double kThreshold = 0.2;

// Same variant set as the sharding differential: refined variants pin
// probability values; unrefined ones pin ids/ordering under loose bounds;
// both TIQ exact_membership modes.
std::vector<Query> MakeVariants(const Pfv& probe) {
  std::vector<Query> variants;
  variants.push_back(Query::Mliq(probe, 3).Accuracy(kAccuracy));
  variants.push_back(Query::Mliq(probe, 5).RefineProbabilities(false));
  variants.push_back(Query::Tiq(probe, kThreshold).ExactMembership(true));
  variants.push_back(
      Query::Tiq(probe, kThreshold).ExactMembership(true).Accuracy(kAccuracy));
  variants.push_back(Query::Tiq(probe, kThreshold).ExactMembership(false));
  return variants;
}

bool IsLazyTiq(const Query& query) {
  return query.kind() == QueryKind::kTiq &&
         !query.tiq_options().exact_membership;
}

bool RefinesProbabilities(const Query& query) {
  return query.kind() == QueryKind::kMliq
             ? query.mliq_options().refine_probabilities
             : query.tiq_options().refine_probabilities;
}

std::vector<uint64_t> Ids(const std::vector<IdentificationResult>& items) {
  std::vector<uint64_t> ids;
  ids.reserve(items.size());
  for (const IdentificationResult& item : items) ids.push_back(item.id);
  return ids;
}

void ExpectEquivalent(const std::vector<IdentificationResult>& got,
                      const std::vector<IdentificationResult>& want,
                      bool compare_probabilities) {
  ASSERT_EQ(Ids(got), Ids(want));
  if (!compare_probabilities) return;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i].probability, want[i].probability,
                got[i].probability_error + want[i].probability_error + 1e-12)
        << "item " << i << " id " << got[i].id;
  }
}

// Lazy-mode TIQ contract: no false dismissals; every extra is a certified
// straddler.
void ExpectLazyTiqContract(const std::vector<IdentificationResult>& got,
                           const std::vector<IdentificationResult>& exact) {
  const std::vector<uint64_t> got_ids = Ids(got);
  const std::set<uint64_t> got_set(got_ids.begin(), got_ids.end());
  for (const IdentificationResult& item : exact) {
    EXPECT_TRUE(got_set.count(item.id))
        << "lazy TIQ dismissed true answer id " << item.id;
  }
  const std::vector<uint64_t> exact_ids = Ids(exact);
  const std::set<uint64_t> exact_set(exact_ids.begin(), exact_ids.end());
  for (const IdentificationResult& item : got) {
    if (exact_set.count(item.id)) continue;
    EXPECT_GE(item.probability + item.probability_error, kThreshold - 1e-12)
        << "lazy TIQ reported id " << item.id
        << " whose certified upper bound misses the threshold";
  }
}

PfvDataset MakeDataset(size_t size, size_t dim, size_t clusters,
                       uint64_t seed) {
  if (size == 0) return PfvDataset(dim);
  ClusteredDatasetConfig config;
  config.size = size;
  config.dim = dim;
  config.cluster_count = clusters;
  config.seed = seed;
  return GenerateClusteredDataset(config);
}

// Objects enrolled live, with ids disjoint from the base dataset's.
std::vector<Pfv> MakeExtras(size_t count, size_t dim, uint64_t first_id,
                            uint64_t seed) {
  const PfvDataset raw = MakeDataset(count, dim, 4, seed);
  std::vector<Pfv> extras;
  extras.reserve(count);
  for (size_t i = 0; i < raw.size(); ++i) {
    Pfv pfv = raw[i];
    pfv.id = first_id + i;
    extras.push_back(std::move(pfv));
  }
  return extras;
}

// The interleaving-point check: the live session must answer a probe batch
// exactly like a static database rebuilt from scratch over `objects`, and
// like the exhaustive scan.
void ExpectMatchesRebuiltOracle(Session& live, const std::vector<Pfv>& objects,
                                size_t dim, Rng& rng) {
  PfvDataset current(dim);
  for (const Pfv& pfv : objects) current.Add(pfv);

  // Probe at up to three enrolled objects (guaranteed interesting density
  // landscape) — including the most recent enrollment, the freshest state.
  std::vector<Query> batch;
  if (!objects.empty()) {
    std::vector<size_t> picks{objects.size() - 1};
    while (picks.size() < 3 && picks.size() < objects.size()) {
      picks.push_back(static_cast<size_t>(rng.NextU64() % objects.size()));
    }
    for (size_t pick : picks) {
      for (Query& query : MakeVariants(objects[pick])) {
        batch.push_back(std::move(query));
      }
    }
  } else {
    batch.push_back(Query::Mliq(Pfv(1, std::vector<double>(dim, 0.5),
                                    std::vector<double>(dim, 0.1)),
                                3));
  }

  // Rebuild-from-scratch oracle: a static single-tree database over exactly
  // the current object set.
  GaussDb oracle_db = GaussDb::CreateInMemory(dim);
  oracle_db.Build(current);
  Session oracle = oracle_db.Serve({.num_workers = 2});
  const BatchResult want = oracle.ExecuteBatch(batch);

  // Exhaustive-scan oracle over the same object set.
  InMemoryPageDevice scan_device;
  BufferPool scan_pool(&scan_device, 1 << 12);
  PfvFile scan_file(&scan_pool, dim);
  scan_file.AppendAll(current);

  const BatchResult got = live.ExecuteBatch(batch);
  ASSERT_EQ(got.responses.size(), batch.size());
  for (size_t i = 0; i < got.responses.size(); ++i) {
    SCOPED_TRACE("query " + std::to_string(i));
    const Query& query = batch[i];
    EXPECT_EQ(got.responses[i].status, QueryResponse::Status::kOk);
    EXPECT_LE(got.responses[i].stats.denominator_lo,
              got.responses[i].stats.denominator_hi);
    SeqScan scan(&scan_file);
    if (IsLazyTiq(query)) {
      ExpectLazyTiqContract(got.responses[i].items,
                            scan.QueryTiq(query.pfv(), kThreshold).items);
      continue;
    }
    ExpectEquivalent(got.responses[i].items, want.responses[i].items,
                     RefinesProbabilities(query));
    if (query.kind() == QueryKind::kTiq) {
      EXPECT_EQ(Ids(got.responses[i].items),
                Ids(scan.QueryTiq(query.pfv(), kThreshold).items));
    } else {
      EXPECT_EQ(Ids(got.responses[i].items),
                Ids(scan.QueryMliq(query.pfv(), query.k()).items));
    }
  }
}

// One randomized interleaved schedule: build a base, serve with live
// ingest, then alternate random-size insert chunks with oracle checks,
// merging (manually) at schedule points chosen up front. Covers unsharded
// and sharded bases, including an empty base (cold-start enrollment).
void RunInterleavedSchedule(size_t base_size, size_t extra_count, size_t dim,
                            size_t num_shards, uint64_t seed) {
  Rng rng(seed);
  const PfvDataset base = MakeDataset(base_size, dim, 6, seed);
  const std::vector<Pfv> extras =
      MakeExtras(extra_count, dim, /*first_id=*/1000000, seed + 1);

  GaussDbOptions options;
  options.shards.num_shards = num_shards;
  options.ingest.enabled = true;
  options.ingest.delta_capacity = extra_count + 1;
  options.ingest.merge_policy = MergePolicy::kManual;
  GaussDb db = GaussDb::CreateInMemory(dim, options);
  db.Build(base);
  Session live = db.Serve({.num_workers = 2});
  EXPECT_TRUE(live.live_ingest());
  EXPECT_EQ(live.ingest_stats().epoch, 1u);

  std::vector<Pfv> enrolled(base.objects());
  size_t next = 0;
  size_t merges = 0;
  while (next < extras.size()) {
    // Insert a random chunk.
    const size_t chunk =
        std::min(extras.size() - next, 1 + rng.NextU64() % 12);
    for (size_t i = 0; i < chunk; ++i) {
      const InsertResult inserted = db.Insert(extras[next]);
      ASSERT_EQ(inserted.outcome, InsertOutcome::kRoutedToDelta)
          << inserted.message;
      enrolled.push_back(extras[next]);
      ++next;
    }
    EXPECT_EQ(db.size(), enrolled.size());

    // Mid-schedule merges: roughly every third chunk, with at least one
    // guaranteed before the schedule ends.
    const bool last_chunk = next >= extras.size();
    if (rng.NextU64() % 3 == 0 || (last_chunk && merges == 0)) {
      const IngestStats before = db.ingest_stats();
      EXPECT_TRUE(db.MergeIngest());
      ++merges;
      const IngestStats after = db.ingest_stats();
      EXPECT_EQ(after.epoch, before.epoch + 1);
      EXPECT_EQ(after.delta_size, 0u);
      EXPECT_EQ(after.merges_completed, before.merges_completed + 1);
      EXPECT_EQ(db.size(), enrolled.size());
    }

    SCOPED_TRACE("after " + std::to_string(next) + " inserts, " +
                 std::to_string(merges) + " merges");
    ExpectMatchesRebuiltOracle(live, enrolled, dim, rng);
  }
  EXPECT_GE(merges, 1u);
  EXPECT_EQ(db.ingest_stats().inserts_accepted, extras.size());
}

TEST(IngestDifferentialTest, UnshardedInterleavedScheduleMatchesOracle) {
  RunInterleavedSchedule(/*base_size=*/300, /*extra_count=*/90, /*dim=*/3,
                         /*num_shards=*/0, /*seed=*/4242);
}

TEST(IngestDifferentialTest, ShardedInterleavedScheduleMatchesOracle) {
  RunInterleavedSchedule(/*base_size=*/400, /*extra_count=*/80, /*dim=*/4,
                         /*num_shards=*/3, /*seed=*/4343);
}

TEST(IngestDifferentialTest, EmptyBaseColdStartEnrollmentMatchesOracle) {
  RunInterleavedSchedule(/*base_size=*/0, /*extra_count=*/60, /*dim=*/3,
                         /*num_shards=*/0, /*seed=*/4444);
}

// Background policy: the merge thread swaps epochs on its own schedule; the
// differential contract must hold at every interleaving point regardless,
// and at least one background merge must complete mid-schedule.
TEST(IngestDifferentialTest, BackgroundMergeMidScheduleStaysExact) {
  constexpr size_t kDim = 3;
  constexpr size_t kExtras = 96;
  Rng rng(7777);
  const PfvDataset base = MakeDataset(250, kDim, 6, /*seed=*/7777);
  const std::vector<Pfv> extras =
      MakeExtras(kExtras, kDim, /*first_id=*/2000000, /*seed=*/7778);

  GaussDbOptions options;
  options.shards.num_shards = 2;
  options.ingest.enabled = true;
  options.ingest.delta_capacity = kExtras + 1;
  options.ingest.merge_threshold = 24;  // several merges over the schedule
  options.ingest.merge_policy = MergePolicy::kBackground;
  GaussDb db = GaussDb::CreateInMemory(kDim, options);
  db.Build(base);
  Session live = db.Serve({.num_workers = 2});

  std::vector<Pfv> enrolled(base.objects());
  size_t next = 0;
  while (next < extras.size()) {
    const size_t chunk = std::min(extras.size() - next, size_t{8});
    for (size_t i = 0; i < chunk; ++i) {
      ASSERT_EQ(db.Insert(extras[next]).outcome,
                InsertOutcome::kRoutedToDelta);
      enrolled.push_back(extras[next]);
      ++next;
    }
    // Half-way through, require a background merge to have landed before
    // continuing — the rest of the schedule then runs over a merged epoch.
    if (next >= extras.size() / 2 && db.ingest_stats().merges_completed == 0) {
      test::SpinUntil(
          [&db] { return db.ingest_stats().merges_completed >= 1; });
    }
    SCOPED_TRACE("after " + std::to_string(next) + " inserts");
    ExpectMatchesRebuiltOracle(live, enrolled, kDim, rng);
  }
  EXPECT_GE(db.ingest_stats().merges_completed, 1u);
  EXPECT_EQ(db.size(), enrolled.size());
}

// Persistence across a merge: the merged base image must be what a reopen
// attaches to — enrollments survive a restart once merged.
TEST(IngestDifferentialTest, MergedEnrollmentsSurviveReopen) {
  constexpr size_t kDim = 3;
  const std::string path = ::testing::TempDir() + "/gauss_ingest_reopen.gauss";
  const PfvDataset base = MakeDataset(200, kDim, 4, /*seed=*/5151);
  const std::vector<Pfv> extras =
      MakeExtras(30, kDim, /*first_id=*/4000000, /*seed=*/5152);
  {
    GaussDbOptions options;
    options.ingest.enabled = true;
    options.ingest.merge_policy = MergePolicy::kManual;
    GaussDb db = GaussDb::CreateOnFile(path, kDim, options);
    db.Build(base);
    Session live = db.Serve({.num_workers = 2});
    for (const Pfv& pfv : extras) {
      ASSERT_EQ(db.Insert(pfv).outcome, InsertOutcome::kRoutedToDelta);
    }
    ASSERT_TRUE(db.MergeIngest());
    EXPECT_EQ(db.size(), base.size() + extras.size());
  }
  OpenResult reopened = GaussDb::OpenFile(path);
  ASSERT_TRUE(reopened.ok()) << reopened.error().message;
  GaussDb db = std::move(reopened).value();
  EXPECT_EQ(db.size(), base.size() + extras.size());
  Session session = db.Serve({.num_workers = 2});
  // Every merged enrollment is findable in the reopened static image.
  for (size_t i = 0; i < extras.size(); i += 7) {
    const auto response =
        session.Submit(Query::Mliq(extras[i], 1).Accuracy(kAccuracy)).get();
    ASSERT_EQ(response.status, QueryResponse::Status::kOk);
    ASSERT_EQ(response.items.size(), 1u);
    EXPECT_EQ(response.items[0].id, extras[i].id);
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace gauss
