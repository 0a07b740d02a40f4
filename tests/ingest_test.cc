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

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "api/gauss_db.h"
#include "api/partitioner.h"
#include "api/serving_engine.h"
#include "common/random.h"
#include "data/generators.h"
#include "pfv/pfv_file.h"
#include "scan/seq_scan.h"
#include "service_test_util.h"
#include "storage/page_device.h"
#include "storage/sharded_buffer_pool.h"

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
  ShardedBufferPool scan_pool(&scan_device, 1 << 12, /*num_shards=*/1);
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

// ------------------------------------------------------ page reclamation --

// Near-copies of base objects (mu nudged by 1e-4, no exact density ties
// with the original), `per_part` from each of the `parts` spatial parts of
// `base`, so every shard of a database built over `base` gets enrollments.
std::vector<Pfv> NearCopies(const PfvDataset& base, size_t parts,
                            size_t per_part, uint64_t first_id, Rng& rng) {
  const size_t leaf =
      GtCapacities::ForPageSize(kDefaultPageSize, base.dim()).leaf;
  std::vector<Pfv> copies;
  for (const std::vector<uint32_t>& part : SplitSpatial(base, parts, leaf)) {
    for (size_t i = 0; i < per_part; ++i) {
      Pfv pfv = base[part[rng.NextU64() % part.size()]];
      pfv.id = first_id + copies.size();
      for (double& mu : pfv.mu) mu += 1e-4;
      copies.push_back(std::move(pfv));
    }
  }
  return copies;
}

// Appends `pages` pages of random bytes to `device`.
void AppendGarbage(PageDevice* device, size_t pages, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> garbage(device->page_size());
  for (size_t i = 0; i < pages; ++i) {
    for (uint8_t& byte : garbage) byte = static_cast<uint8_t>(rng.NextU64());
    device->Write(device->Allocate(), garbage.data());
  }
}

enum class Layout { kInMemory, kFile, kShardedFile };

// Eight manual merge rounds of a few enrollments each. A merge writes its
// image on the pages the merge before it retired, so the device holds at
// most two images (plus the merge trees' header pages), and once the
// second merge has appended the second image it stops growing while the
// image does not.
void ExpectSpaceBoundedOverMerges(Layout layout, uint64_t seed) {
  constexpr size_t kDim = 3;
  constexpr size_t kRounds = 8;
  const size_t trees = layout == Layout::kShardedFile ? 2 : 1;
  const std::string path = ::testing::TempDir() + "/gauss_ingest_bounded_" +
                           std::to_string(seed) + ".gauss";
  Rng rng(seed);
  const PfvDataset base = MakeDataset(1500, kDim, 6, seed);

  GaussDbOptions options;
  options.shards.num_shards = trees > 1 ? trees : 0;
  options.ingest.enabled = true;
  options.ingest.merge_policy = MergePolicy::kManual;
  GaussDb db = layout == Layout::kInMemory
                   ? GaussDb::CreateInMemory(kDim, options)
                   : GaussDb::CreateOnFile(path, kDim, options);
  db.Build(base);
  Session live = db.Serve({.num_workers = 2});

  IngestStats stats = db.ingest_stats();
  EXPECT_EQ(stats.device_pages, db.device(0).PageCount());
  EXPECT_EQ(stats.free_pages, 0u);  // a fresh build leaves no dead page
  // Index k: after merge k (0: as served).
  std::vector<size_t> pages{stats.device_pages};
  std::vector<size_t> image{stats.device_pages};
  size_t largest_image = image[0];
  size_t steady = 0;
  std::vector<Pfv> enrolled(base.objects());
  for (size_t k = 1; k <= kRounds; ++k) {
    SCOPED_TRACE("merge " + std::to_string(k));
    for (Pfv& pfv : NearCopies(base, trees, 3, 9000000 + 100 * k, rng)) {
      ASSERT_EQ(db.Insert(pfv).outcome, InsertOutcome::kRoutedToDelta);
      enrolled.push_back(std::move(pfv));
    }
    ASSERT_TRUE(db.MergeIngest());
    stats = db.ingest_stats();
    EXPECT_EQ(stats.device_pages, db.device(0).PageCount());
    EXPECT_LT(stats.free_pages, stats.device_pages);
    pages.push_back(stats.device_pages);
    image.push_back(stats.device_pages - stats.free_pages);
    largest_image = std::max(largest_image, image[k]);
    EXPECT_LE(pages[k], 2 * largest_image + trees);
    // Merge k writes into what merge k - 1 freed: image k - 2 and the
    // header page of merge k - 1's trees.
    if (k >= 2 && image[k] <= image[k - 2]) {
      EXPECT_EQ(pages[k], pages[k - 1]);
      ++steady;
    }
    ExpectMatchesRebuiltOracle(live, enrolled, kDim, rng);
  }
  EXPECT_GT(pages[1], pages[0]);  // the first merge has nothing to reuse
  EXPECT_EQ(steady, kRounds - 1);
  if (layout != Layout::kInMemory) std::remove(path.c_str());
}

TEST(IngestReclaimTest, InMemorySpaceStaysBoundedOverMerges) {
  ExpectSpaceBoundedOverMerges(Layout::kInMemory, /*seed=*/6161);
}

TEST(IngestReclaimTest, FileSpaceStaysBoundedOverMerges) {
  ExpectSpaceBoundedOverMerges(Layout::kFile, /*seed=*/6262);
}

TEST(IngestReclaimTest, ShardedFileSpaceStaysBoundedOverMerges) {
  ExpectSpaceBoundedOverMerges(Layout::kShardedFile, /*seed=*/6363);
}

// An in-memory device that logs every page write and every sync.
class RecordingDevice : public InMemoryPageDevice {
 public:
  // kSync, or the id of a written page.
  static constexpr PageId kSync = kInvalidPageId;

  using InMemoryPageDevice::InMemoryPageDevice;

  void Write(PageId id, const void* data) override {
    Log(id);
    InMemoryPageDevice::Write(id, data);
  }
  void Sync() override { Log(kSync); }

  std::vector<PageId> TakeLog() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::exchange(log_, {});
  }

 private:
  void Log(PageId event) {
    std::lock_guard<std::mutex> lock(mu_);
    log_.push_back(event);
  }

  std::mutex mu_;
  std::vector<PageId> log_;
};

// A merge commits in write-ahead order: every page of the merged image is
// written, then synced, before the shard's header page is redirected to
// it, and the redirect is synced too. Checked over two merges, the second
// of which writes into the pages the first one recycled.
TEST(IngestReclaimTest, MergeSyncsNodesBeforeRedirectingTheHeader) {
  constexpr size_t kDim = 3;
  const PfvDataset base = MakeDataset(800, kDim, 6, /*seed=*/6464);
  RecordingDevice device;
  PageId meta = kInvalidPageId;
  {
    ShardedBufferPool pool(&device, kBuildPoolPages, /*num_shards=*/1);
    GaussTree tree(&pool, kDim);
    tree.BulkLoad(base);
    tree.Finalize();
    meta = tree.meta_page();
  }
  IngestOptions ingest;
  ingest.enabled = true;
  ingest.merge_policy = MergePolicy::kManual;
  ServingEngine engine({{&device, meta}}, /*sharded=*/false, kDim,
                       GaussTreeOptions{}, ServeOptions{.num_workers = 2},
                       ingest);
  const std::vector<Pfv> extras =
      MakeExtras(40, kDim, /*first_id=*/8000000, /*seed=*/6465);
  const size_t first_image = device.PageCount();
  for (size_t merge = 0; merge < 2; ++merge) {
    SCOPED_TRACE("merge " + std::to_string(merge + 1));
    for (size_t i = 0; i < 20; ++i) {
      ASSERT_EQ(engine.Insert(extras[20 * merge + i]).outcome,
                InsertOutcome::kRoutedToDelta);
    }
    device.TakeLog();
    ASSERT_TRUE(engine.MergeNow());
    const std::vector<PageId> log = device.TakeLog();
    const auto redirect = std::find(log.begin(), log.end(), meta);
    ASSERT_NE(redirect, log.end()) << "the header page was not redirected";
    EXPECT_EQ(std::count(log.begin(), log.end(), meta), 1);
    // Node writes, a sync, the redirect, a sync.
    ASSERT_GE(redirect - log.begin(), 2);
    EXPECT_EQ(*(redirect - 1), RecordingDevice::kSync);
    EXPECT_GT(std::count_if(log.begin(), redirect - 1,
                            [](PageId e) {
                              return e != RecordingDevice::kSync;
                            }),
              1);
    EXPECT_EQ(std::vector<PageId>(redirect + 1, log.end()),
              std::vector<PageId>{RecordingDevice::kSync});
  }
  // The second merge took the first image's pages: the device holds two
  // images, not three.
  EXPECT_LT(device.PageCount(), 2 * first_image + 2);
  EXPECT_EQ(engine.size(), base.size() + extras.size());
}

// The free set is not persisted; a live engine derives it. A 2-shard file
// is merged, closed with a dead image in it, and then grows by orphan
// pages — what a merge cut short by a crash leaves behind. Reopened with
// ingest, it recycles both, answers like the oracle, and its next merge
// reuses them without growing the file. The page-0 manifest survives all
// of it.
TEST(IngestReclaimTest, ReopenRecyclesDeadImagesAndOrphanPages) {
  constexpr size_t kDim = 3;
  constexpr size_t kOrphans = 5;
  const std::string path = ::testing::TempDir() + "/gauss_ingest_orphans.gauss";
  Rng rng(6565);
  const PfvDataset base = MakeDataset(1500, kDim, 6, /*seed=*/6565);
  GaussDbOptions options;
  options.shards.num_shards = 2;
  options.ingest.enabled = true;
  options.ingest.merge_policy = MergePolicy::kManual;
  std::vector<Pfv> enrolled(base.objects());
  size_t image = 0;
  size_t pages = 0;
  {
    GaussDb db = GaussDb::CreateOnFile(path, kDim, options);
    db.Build(base);
    Session live = db.Serve({.num_workers = 2});
    for (Pfv& pfv : NearCopies(base, 2, 3, 9100000, rng)) {
      ASSERT_EQ(db.Insert(pfv).outcome, InsertOutcome::kRoutedToDelta);
      enrolled.push_back(std::move(pfv));
    }
    ASSERT_TRUE(db.MergeIngest());
    const IngestStats stats = db.ingest_stats();
    pages = stats.device_pages;
    image = stats.device_pages - stats.free_pages;
    EXPECT_GT(stats.free_pages, 0u);
  }
  {
    FilePageDevice device(path, kDefaultPageSize, /*truncate=*/false);
    ASSERT_EQ(device.PageCount(), pages);
    AppendGarbage(&device, kOrphans, /*seed=*/6566);
    device.Sync();
  }
  {
    OpenResult reopened = GaussDb::OpenFile(path, options);
    ASSERT_TRUE(reopened.ok()) << reopened.error().message;
    GaussDb db = std::move(reopened).value();
    Session live = db.Serve({.num_workers = 2});
    IngestStats stats = db.ingest_stats();
    EXPECT_EQ(stats.device_pages, pages + kOrphans);
    EXPECT_EQ(stats.device_pages - stats.free_pages, image);
    ExpectMatchesRebuiltOracle(live, enrolled, kDim, rng);

    for (Pfv& pfv : NearCopies(base, 2, 3, 9200000, rng)) {
      ASSERT_EQ(db.Insert(pfv).outcome, InsertOutcome::kRoutedToDelta);
      enrolled.push_back(std::move(pfv));
    }
    ASSERT_TRUE(db.MergeIngest());
    stats = db.ingest_stats();
    EXPECT_EQ(stats.device_pages, pages + kOrphans);
    EXPECT_EQ(db.device(0).PageCount(), pages + kOrphans);
    ExpectMatchesRebuiltOracle(live, enrolled, kDim, rng);
  }
  OpenResult reopened = GaussDb::OpenFile(path);
  ASSERT_TRUE(reopened.ok()) << reopened.error().message;
  EXPECT_TRUE(reopened->sharded());
  EXPECT_EQ(reopened->num_shards(), 2u);
  EXPECT_EQ(reopened->size(), enrolled.size());
  std::remove(path.c_str());
}

// FNV-1a 64 over every byte of the file at `path`.
uint64_t FileHash(const std::string& path, size_t* bytes) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  EXPECT_NE(file, nullptr) << path;
  if (file == nullptr) return 0;
  uint64_t hash = 0xcbf29ce484222325ull;
  *bytes = 0;
  for (int c = std::fgetc(file); c != EOF; c = std::fgetc(file)) {
    hash = (hash ^ static_cast<uint8_t>(c)) * 0x100000001b3ull;
    ++*bytes;
  }
  std::fclose(file);
  return hash;
}

// Two manual merges of a file-backed base, served behind `cache_pages`
// pages, each checked against the oracle; returns the file's hash (and its
// size in `*bytes`). The merged image depends only on the objects, so
// every cache size gives the same file.
uint64_t MergeTwiceOnFile(size_t num_shards, size_t cache_pages,
                          size_t* bytes) {
  constexpr size_t kDim = 4;
  const std::string path = ::testing::TempDir() + "/gauss_ingest_pinned_" +
                           std::to_string(num_shards) + "_" +
                           std::to_string(cache_pages) + ".gauss";
  Rng rng(7171);
  const PfvDataset base = MakeDataset(3000, kDim, 6, /*seed=*/7171);
  const std::vector<Pfv> extras =
      MakeExtras(80, kDim, /*first_id=*/7000000, /*seed=*/7172);
  GaussDbOptions options;
  options.shards.num_shards = num_shards;
  options.ingest.enabled = true;
  options.ingest.merge_policy = MergePolicy::kManual;
  {
    GaussDb db = GaussDb::CreateOnFile(path, kDim, options);
    db.Build(base);
    Session live = db.Serve({.num_workers = 2, .cache_pages = cache_pages});
    std::vector<Pfv> enrolled(base.objects());
    for (size_t merge = 0; merge < 2; ++merge) {
      SCOPED_TRACE("merge " + std::to_string(merge + 1));
      for (size_t i = 40 * merge; i < 40 * (merge + 1); ++i) {
        EXPECT_EQ(db.Insert(extras[i]).outcome, InsertOutcome::kRoutedToDelta);
        enrolled.push_back(extras[i]);
      }
      EXPECT_TRUE(db.MergeIngest());
      ExpectMatchesRebuiltOracle(live, enrolled, kDim, rng);
    }
  }
  const uint64_t hash = FileHash(path, bytes);
  std::remove(path.c_str());
  return hash;
}

// A merge rebuilds from the old image's leaf pages read in place, then the
// delta, in that order; the merged file is pinned by hash, so any change to
// what a merge writes shows here. The small caches hold fewer pages than
// the old image's leaves, all of which the merge pins at once: the serving
// pool grows past its budget for the merge and the image stays the same.
TEST(IngestReclaimTest, MergedImageIsPinned) {
  // Recorded before merges read the old image in place (they copied it
  // out first).
  constexpr uint64_t kOneTree = 0x6b207bf9cc809da7ull;
  constexpr uint64_t kTwoShards = 0x34ec7fd215111526ull;
  for (const size_t cache_pages : {size_t{1} << 12, size_t{16}}) {
    SCOPED_TRACE("cache_pages " + std::to_string(cache_pages));
    size_t bytes = 0;
    EXPECT_EQ(MergeTwiceOnFile(0, cache_pages, &bytes), kOneTree);
    EXPECT_EQ(bytes, 557056u);
    EXPECT_EQ(MergeTwiceOnFile(2, cache_pages, &bytes), kTwoShards);
    EXPECT_EQ(bytes, 450560u);
  }
}

}  // namespace
}  // namespace gauss
