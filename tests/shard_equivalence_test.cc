// Differential property harness for sharded GaussDb: for randomized
// datasets, dimensionalities, and shard counts 1-8, scatter-gathered
// MLIQ/TIQ answers must match the single-tree reference (ids and ordering
// exactly; probabilities within the requested accuracy when refinement is
// on) and the seq-scan oracle — in both TIQ exact_membership modes. Every
// assertion runs under a SCOPED_TRACE naming the generator seed and
// configuration, so a failure prints exactly what to replay.
//
// Why this is the acceptance gate: a sharded TIQ/MLIQ answer is only
// correct if the coordinator combines per-shard Bayes-denominator bounds
// and re-refines when the combined interval is too loose — none of which a
// per-shard unit test can see. Comparing whole answers against an
// independently built single tree (different tree shapes, different
// traversal orders) and against the exhaustive scan catches any mistake in
// the combination math.

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "api/gauss_db.h"
#include "api/partitioner.h"
#include "common/random.h"
#include "data/generators.h"
#include "data/paper_datasets.h"
#include "data/workload.h"
#include "legacy_image.h"
#include "net/net_error.h"
#include "net/shard_server.h"
#include "pfv/pfv_file.h"
#include "scan/seq_scan.h"
#include "service_test_util.h"
#include "storage/page_device.h"
#include "storage/sharded_buffer_pool.h"

namespace gauss {
namespace {

constexpr double kAccuracy = 1e-4;  // requested probability accuracy
constexpr double kThreshold = 0.2;  // TIQ threshold for generated workloads

// The query variants every trial exercises per probe. Refined variants pin
// probability values; unrefined ones pin ids/ordering under loose bounds.
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

// ids and ordering exactly; probabilities within the sum of the two
// certified interval half-widths (each answer's midpoint is within its own
// half-width of the true probability).
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

// Lazy-mode TIQ contract (paper Figure 5): the traversal-dependent result
// set must contain every true answer (no false dismissals), and every extra
// must be a certified straddler — its probability interval still reaches
// the threshold.
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

// Single-tree and seq-scan reference answers plus the probe workload for
// one dataset.
class Reference {
 public:
  explicit Reference(const PfvDataset& dataset, size_t probes, uint64_t seed)
      : scan_pool_(&scan_device_, 1 << 12, /*num_shards=*/1),
        scan_file_(&scan_pool_, dataset.dim()) {
    scan_file_.AppendAll(dataset);

    if (dataset.size() > 0) {
      WorkloadConfig wconfig;
      wconfig.query_count = probes;
      wconfig.seed = seed;
      for (const IdentificationQuery& q : GenerateWorkload(dataset, wconfig)) {
        probes_.push_back(q.query);
      }
    } else {
      // No objects to probe near: a fixed far-field probe still must return
      // empty answers everywhere.
      probes_.push_back(Pfv(1, std::vector<double>(dataset.dim(), 0.5),
                            std::vector<double>(dataset.dim(), 0.1)));
    }
    for (const Pfv& probe : probes_) {
      for (Query& query : MakeVariants(probe)) {
        batch_.push_back(std::move(query));
      }
    }

    GaussDb db = GaussDb::CreateInMemory(dataset.dim());
    db.Build(dataset);
    Session session = db.Serve({.num_workers = 2});
    single_tree_ = session.ExecuteBatch(batch_);
  }

  const std::vector<Query>& batch() const { return batch_; }
  const BatchResult& single_tree() const { return single_tree_; }

  // Exact TIQ answer for the probe behind batch()[i] (exhaustive scan).
  std::vector<IdentificationResult> ScanTiq(size_t i) const {
    SeqScan scan(&scan_file_);
    return scan.QueryTiq(batch_[i].pfv(), kThreshold).items;
  }
  std::vector<IdentificationResult> ScanMliq(size_t i, size_t k) const {
    SeqScan scan(&scan_file_);
    return scan.QueryMliq(batch_[i].pfv(), k).items;
  }

 private:
  InMemoryPageDevice scan_device_;
  ShardedBufferPool scan_pool_;
  PfvFile scan_file_;
  std::vector<Pfv> probes_;
  std::vector<Query> batch_;
  BatchResult single_tree_;
};

// Checks `got`, the answer to ref.batch()[i], against the single-tree
// reference and the seq-scan oracle.
void ExpectResponseMatches(const QueryResponse& got, size_t i,
                           const Reference& ref) {
  SCOPED_TRACE("query " + std::to_string(i));
  const Query& query = ref.batch()[i];
  const QueryResponse& want = ref.single_tree().responses[i];
  EXPECT_EQ(got.status, QueryResponse::Status::kOk);
  EXPECT_EQ(got.kind, query.kind());
  // Combined denominator interval must be well-formed.
  EXPECT_LE(got.stats.denominator_lo, got.stats.denominator_hi);

  if (IsLazyTiq(query)) {
    ExpectLazyTiqContract(got.items, ref.ScanTiq(i));
    return;
  }
  ExpectEquivalent(got.items, want.items, RefinesProbabilities(query));
  // Independent oracle: the exhaustive scan.
  if (query.kind() == QueryKind::kTiq) {
    EXPECT_EQ(Ids(got.items), Ids(ref.ScanTiq(i)));
  } else {
    EXPECT_EQ(Ids(got.items), Ids(ref.ScanMliq(i, query.k())));
  }
}

// Checks answers to ref.batch() against the single-tree reference and the
// seq-scan oracle.
void ExpectMatchesReference(const BatchResult& result, const Reference& ref) {
  ASSERT_EQ(result.responses.size(), ref.batch().size());
  for (size_t i = 0; i < result.responses.size(); ++i) {
    ExpectResponseMatches(result.responses[i], i, ref);
  }
}

// Runs the whole differential comparison for one dataset and shard count.
void CheckShardCount(const PfvDataset& dataset, const Reference& ref,
                     size_t num_shards) {
  GaussDbOptions options;
  options.shards.num_shards = num_shards;
  GaussDb db = GaussDb::CreateInMemory(dataset.dim(), options);
  db.Build(dataset);
  EXPECT_EQ(db.size(), dataset.size());
  EXPECT_EQ(db.num_shards(), num_shards);

  Session session = db.Serve({.num_workers = 2 * num_shards});
  EXPECT_TRUE(session.sharded());
  EXPECT_EQ(session.num_shards(), num_shards);
  size_t sharded_objects = 0;
  for (size_t s = 0; s < num_shards; ++s) {
    session.shard_tree(s).Validate();
    sharded_objects += session.shard_tree(s).size();
  }
  EXPECT_EQ(sharded_objects, dataset.size());

  ExpectMatchesReference(session.ExecuteBatch(ref.batch()), ref);
}

PfvDataset MakeDataset(size_t size, size_t dim, size_t clusters,
                       uint64_t seed) {
  if (size == 0) return PfvDataset(dim);  // the generator requires size > 0
  ClusteredDatasetConfig config;
  config.size = size;
  config.dim = dim;
  config.cluster_count = clusters;
  config.seed = seed;
  return GenerateClusteredDataset(config);
}

// Acceptance criterion: every shard count 1 through 8 matches the
// single-tree reference on one solid configuration. Shard count 1 routes
// through the full coordinator (scale rebasing, combination, final filter)
// and must be byte-compatible with the plain single-tree answers.
TEST(ShardEquivalenceTest, ShardCounts1Through8MatchSingleTreeReference) {
  const PfvDataset dataset = MakeDataset(1000, 4, 10, /*seed=*/101);
  const Reference ref(dataset, /*probes=*/8, /*seed=*/11);
  for (size_t shards = 1; shards <= 8; ++shards) {
    SCOPED_TRACE("num_shards=" + std::to_string(shards));
    CheckShardCount(dataset, ref, shards);
  }
}

// Randomized trials over dataset shape; failures print the seed to replay.
TEST(ShardEquivalenceTest, RandomizedDifferentialTrials) {
  constexpr uint64_t kBaseSeed = 7000;
  Rng rng(kBaseSeed);
  for (size_t trial = 0; trial < 4; ++trial) {
    const uint64_t seed = kBaseSeed + 31 * trial;
    const size_t dim = 2 + rng.UniformInt(5);         // 2..6
    const size_t size = 300 + rng.UniformInt(1200);   // 300..1499
    const size_t clusters = 4 + rng.UniformInt(12);   // 4..15
    char trace[128];
    std::snprintf(trace, sizeof(trace),
                  "trial=%zu seed=%llu dim=%zu size=%zu clusters=%zu", trial,
                  static_cast<unsigned long long>(seed), dim, size, clusters);
    SCOPED_TRACE(trace);

    const PfvDataset dataset = MakeDataset(size, dim, clusters, seed);
    const Reference ref(dataset, /*probes=*/4, seed + 1);
    for (size_t shards : {2, 3, 5, 8}) {
      SCOPED_TRACE("num_shards=" + std::to_string(shards));
      CheckShardCount(dataset, ref, shards);
    }
  }
}

// Degenerate galleries: empty database, and datasets smaller than the shard
// count (some shard trees stay empty — their traversals must contribute
// nothing to the combined denominator, not a bogus reference scale).
TEST(ShardEquivalenceTest, TinyAndEmptyDatasetsAcrossShardCounts) {
  for (size_t size : {0, 1, 5}) {
    SCOPED_TRACE("size=" + std::to_string(size));
    const PfvDataset dataset = MakeDataset(size, 3, 2, /*seed=*/303);
    const Reference ref(dataset, /*probes=*/2, /*seed=*/17);
    for (size_t shards : {1, 2, 8}) {
      SCOPED_TRACE("num_shards=" + std::to_string(shards));
      CheckShardCount(dataset, ref, shards);
    }
  }
}

// A sharded on-file database must survive close + reopen: the manifest
// restores the shard layout and every answer is byte-identical to the
// pre-reopen serving stack (same trees, same traversals, same bounds).
TEST(ShardEquivalenceTest, ShardedFileRoundTripIsByteIdentical) {
  const std::string path =
      ::testing::TempDir() + "/gauss_db_sharded_roundtrip.db";
  const PfvDataset dataset = MakeDataset(800, 4, 8, /*seed=*/505);
  const Reference ref(dataset, /*probes=*/6, /*seed=*/19);

  BatchResult before;
  {
    GaussDbOptions options;
    options.shards.num_shards = 3;
    GaussDb db = GaussDb::CreateOnFile(path, dataset.dim(), options);
    db.Build(dataset);
    Session session = db.Serve({.num_workers = 3});
    before = session.ExecuteBatch(ref.batch());
  }  // db + session gone: only the file survives

  {
    GaussDb reopened = GaussDb::OpenFile(path).value();
    EXPECT_TRUE(reopened.sharded());
    EXPECT_EQ(reopened.num_shards(), 3u);
    EXPECT_EQ(reopened.dim(), dataset.dim());
    EXPECT_EQ(reopened.size(), dataset.size());
    Session session = reopened.Serve({.num_workers = 3});
    const BatchResult after = session.ExecuteBatch(ref.batch());
    ASSERT_EQ(after.responses.size(), before.responses.size());
    for (size_t i = 0; i < after.responses.size(); ++i) {
      SCOPED_TRACE("query " + std::to_string(i));
      test::ExpectItemsBytesEqual(after.responses[i].items,
                                  before.responses[i].items);
    }
  }
  std::remove(path.c_str());
}

// Serves `batch` once through a cache of `cache_pages` and returns the
// answers plus the logical page reads the batch cost.
std::pair<BatchResult, uint64_t> ServeWithCache(
    GaussDb& db, size_t workers, size_t cache_pages,
    const std::vector<Query>& batch) {
  ServeOptions serve;
  serve.num_workers = workers;
  serve.cache_pages = cache_pages;
  Session session = db.Serve(serve);
  const uint64_t before = session.io_stats().logical_reads;
  BatchResult result = session.ExecuteBatch(batch);
  const uint64_t reads = session.io_stats().logical_reads - before;
  return {std::move(result), reads};
}

// Expects `got` to answer every query kOk, byte-identical to `want`.
void ExpectBatchBytesEqual(const BatchResult& got, const BatchResult& want) {
  ASSERT_EQ(got.responses.size(), want.responses.size());
  for (size_t i = 0; i < got.responses.size(); ++i) {
    SCOPED_TRACE("query " + std::to_string(i));
    EXPECT_EQ(got.responses[i].status, QueryResponse::Status::kOk);
    test::ExpectItemsBytesEqual(got.responses[i].items,
                                want.responses[i].items);
  }
}

// A serving cache far smaller than the tree(s) — every traversal evicts and
// re-reads pages under the other workers — must be invisible in the answers:
// for both the unsharded service path and the coordinator's scatter-gather
// path, answers are byte-identical to a session whose cache holds the whole
// tree and match the single-tree reference and seq-scan oracle, and the
// logical page accesses (the paper's metric) are equal.
TEST(ShardEquivalenceTest, TreeSmallerCacheIsByteIdenticalPerTopology) {
  // Large enough that every per-shard tree dwarfs its serving cache.
  const PfvDataset dataset = MakeDataset(4000, 4, 10, /*seed=*/909);
  const Reference ref(dataset, /*probes=*/6, /*seed=*/23);

  for (const size_t shards : {size_t{0}, size_t{3}}) {  // 0 = unsharded
    SCOPED_TRACE("num_shards=" + std::to_string(shards));
    GaussDbOptions options;
    options.shards.num_shards = shards;
    GaussDb db = GaussDb::CreateInMemory(dataset.dim(), options);
    db.Build(dataset);

    const size_t workers = 2 * std::max<size_t>(1, shards);
    const auto [small, small_reads] =
        ServeWithCache(db, workers, /*cache_pages=*/48, ref.batch());
    const auto [full, full_reads] =
        ServeWithCache(db, workers, /*cache_pages=*/1 << 14, ref.batch());
    ExpectBatchBytesEqual(small, full);
    ExpectMatchesReference(small, ref);
    EXPECT_GT(small_reads, 0u);
    EXPECT_EQ(small_reads, full_reads);
  }
}

// FNV-1a over every page of the device: the whole persisted image.
uint64_t ImageHash(const PageDevice& device) {
  uint64_t hash = 0xcbf29ce484222325ull;
  std::vector<uint8_t> page(device.page_size());
  for (PageId id = 0; id < device.PageCount(); ++id) {
    device.Read(id, page.data());
    for (const uint8_t byte : page) {
      hash ^= byte;
      hash *= 0x100000001b3ull;
    }
  }
  return hash;
}

// The device image of an in-memory sharded database, pinned: the spatial
// cut, every shard's bulk load and the page-0 manifest. 3 shards is the
// uneven cut. Each image is built once with the machine's CPUs and once on
// a thread confined to one CPU (a one-thread bulk load); both must hash to
// the constant. A change to a constant is a change to every sharded
// database built since, not a refactoring (the unsharded counterparts are
// the pins in bulk_load_test.cc).
TEST(ShardEquivalenceTest, ShardedImageIsPinned) {
  const PfvDataset dataset = GeneratePaperDataset2(20000).dataset;
  const auto image = [&](size_t shards) {
    GaussDbOptions options;
    options.shards.num_shards = shards;
    GaussDb db = GaussDb::CreateInMemory(dataset.dim(), options);
    db.Build(dataset);
    return ImageHash(db.device());
  };
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  ASSERT_EQ(sched_getaffinity(0, sizeof(allowed), &allowed), 0);
  int first = 0;
  while (!CPU_ISSET(first, &allowed)) ++first;
  for (const auto& [shards, expected] :
       {std::pair<size_t, uint64_t>{4, 0xd8301495f95a0838ull},
        {3, 0xa7cb981b8d8b43d2ull}}) {
    SCOPED_TRACE("num_shards=" + std::to_string(shards));
    EXPECT_EQ(image(shards), expected);
    uint64_t one_cpu = 0;
    std::thread([&, shards = shards] {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(first, &one);
      ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
      one_cpu = image(shards);
    }).join();
    EXPECT_EQ(one_cpu, expected) << "one CPU";
  }
}

// The shard manifest (header + one PageId per shard) must fit page 0; a
// page size too small for the shard count fails loudly at creation instead
// of overflowing the manifest write at Finalize().
TEST(ShardEquivalenceDeathTest, ManifestMustFitThePage) {
  GaussDbOptions options;
  options.page_size = 256;
  options.shards.num_shards = 64;  // 24-byte header + 64 PageIds > 256
  EXPECT_DEATH(GaussDb::CreateInMemory(3, options),
               "shard manifest does not fit");
}

// ======================= directory layout (multi-device) ====================
// One FilePageDevice per shard behind the same coordinator protocol: the
// scatter-gather math never sees where a shard's pages live, so a directory
// database must answer byte-identically to the single-device sharded layout
// (same partitioner -> same shard trees -> same traversals) and match the
// seq-scan oracle.

// Removes a CreateOnDirectory database and its directory.
void RemoveDirectoryLayout(const std::string& dir, size_t num_shards) {
  for (size_t s = 0; s < num_shards; ++s) {
    char name[40];
    std::snprintf(name, sizeof(name), "shard-%04zu.gauss", s);
    std::remove((dir + "/" + name).c_str());
  }
  std::remove((dir + "/MANIFEST").c_str());
  ::rmdir(dir.c_str());
}

TEST(ShardEquivalenceTest, DirectoryLayoutMatchesSingleDeviceAndScan) {
  constexpr size_t kShards = 4;
  const std::string dir = ::testing::TempDir() + "/gauss_db_dir_equiv";
  const std::string file = ::testing::TempDir() + "/gauss_db_dir_equiv.db";
  const PfvDataset dataset = MakeDataset(900, 4, 8, /*seed=*/707);
  const Reference ref(dataset, /*probes=*/6, /*seed=*/29);

  GaussDbOptions options;
  options.shards.num_shards = kShards;

  // Single-device sharded layout: the byte-level reference.
  GaussDb file_db = GaussDb::CreateOnFile(file, dataset.dim(), options);
  file_db.Build(dataset);
  Session file_session = file_db.Serve({.num_workers = kShards});
  const BatchResult single_device = file_session.ExecuteBatch(ref.batch());

  // Multi-device directory layout, same partitioning.
  GaussDb dir_db = GaussDb::CreateOnDirectory(dir, dataset.dim(), options);
  EXPECT_TRUE(dir_db.per_shard_devices());
  dir_db.Build(dataset);
  EXPECT_EQ(dir_db.size(), dataset.size());
  Session dir_session = dir_db.Serve({.num_workers = kShards});
  EXPECT_TRUE(dir_session.sharded());
  EXPECT_EQ(dir_session.num_shards(), kShards);

  const BatchResult result = dir_session.ExecuteBatch(ref.batch());
  ASSERT_EQ(result.responses.size(), ref.batch().size());
  for (size_t i = 0; i < result.responses.size(); ++i) {
    SCOPED_TRACE("query " + std::to_string(i));
    const Query& query = ref.batch()[i];
    EXPECT_EQ(result.responses[i].status, QueryResponse::Status::kOk);
    // Byte-identical to the one-device sharded run: same shard trees, same
    // traversals, only the pages' physical homes differ.
    test::ExpectItemsBytesEqual(result.responses[i].items,
                                single_device.responses[i].items);
    // And still exactly the independent oracles' answers.
    if (IsLazyTiq(query)) {
      ExpectLazyTiqContract(result.responses[i].items, ref.ScanTiq(i));
    } else if (query.kind() == QueryKind::kTiq) {
      EXPECT_EQ(Ids(result.responses[i].items), Ids(ref.ScanTiq(i)));
    } else {
      EXPECT_EQ(Ids(result.responses[i].items), Ids(ref.ScanMliq(i, query.k())));
    }
  }
  RemoveDirectoryLayout(dir, kShards);
  std::remove(file.c_str());
}

// Close + OpenDirectory round trip: the MANIFEST restores shard count,
// partition kind, page size, and dimensionality; answers are byte-identical,
// and a reopened directory keeps growing through Insert(). Every
// shard file is also independently openable as an ordinary single-tree
// database — the layout's repair/inspection property.
TEST(ShardEquivalenceTest, DirectoryRoundTripIsByteIdenticalAndGrowable) {
  constexpr size_t kShards = 5;
  const std::string dir = ::testing::TempDir() + "/gauss_db_dir_roundtrip";
  const PfvDataset dataset = MakeDataset(700, 3, 8, /*seed=*/808);
  const PfvDataset extra = MakeDataset(150, 3, 4, /*seed=*/809);
  const Reference ref(dataset, /*probes=*/5, /*seed=*/37);

  BatchResult before;
  {
    GaussDbOptions options;
    options.shards.num_shards = kShards;
    GaussDb db = GaussDb::CreateOnDirectory(dir, dataset.dim(), options);
    db.Build(dataset);
    Session session = db.Serve({.num_workers = kShards});
    before = session.ExecuteBatch(ref.batch());
  }  // db + session gone: only the directory survives

  {
    GaussDb reopened = GaussDb::OpenDirectory(dir).value();
    EXPECT_TRUE(reopened.sharded());
    EXPECT_TRUE(reopened.per_shard_devices());
    EXPECT_EQ(reopened.num_shards(), kShards);
    EXPECT_EQ(reopened.dim(), dataset.dim());
    EXPECT_EQ(reopened.size(), dataset.size());
    Session session = reopened.Serve({.num_workers = kShards});
    const BatchResult after = session.ExecuteBatch(ref.batch());
    ASSERT_EQ(after.responses.size(), before.responses.size());
    for (size_t i = 0; i < after.responses.size(); ++i) {
      SCOPED_TRACE("query " + std::to_string(i));
      test::ExpectItemsBytesEqual(after.responses[i].items,
                                  before.responses[i].items);
    }
  }

  // Reopen again and grow: the new objects route by the shards' root MBRs.
  {
    GaussDb db = GaussDb::OpenDirectory(dir).value();
    for (size_t i = 0; i < extra.size(); ++i) {
      Pfv pfv = extra[i];
      pfv.id += 2'000'000;
      db.Insert(pfv);
    }
    db.Finalize();
    Session session = db.Serve({.num_workers = kShards});
    size_t total = 0;
    for (size_t s = 0; s < session.num_shards(); ++s) {
      session.shard_tree(s).Validate();
      total += session.shard_tree(s).size();
    }
    EXPECT_EQ(total, dataset.size() + extra.size());
  }

  // Shard files are plain single-tree images: OpenFile() reads one alone.
  {
    GaussDb shard0 = GaussDb::OpenFile(dir + "/shard-0000.gauss").value();
    EXPECT_FALSE(shard0.sharded());
    EXPECT_EQ(shard0.dim(), dataset.dim());
    EXPECT_GT(shard0.size(), 0u);
  }
  RemoveDirectoryLayout(dir, kShards);
}

// ============================ spatial routing ===============================

constexpr size_t kRouteShards = 3;

// Where an id-hash routing (SplitMix64 of the id, modulo the shard count)
// would send `id`: a spatial router that matched it would prove nothing.
size_t HashShard(uint64_t id) {
  uint64_t x = id + 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return static_cast<size_t>((x ^ (x >> 31)) % kRouteShards);
}

std::vector<size_t> BuildTreeSizes(const GaussDb& db) {
  std::vector<size_t> sizes;
  for (size_t s = 0; s < db.num_shards(); ++s) {
    sizes.push_back(db.build_tree(s)->size());
  }
  return sizes;
}

// A spatial image routes a build-phase Insert and a live delta append to the
// one shard whose root MBR contains the object — not where an id hash would
// have sent it.
TEST(ShardEquivalenceTest, SpatialImageRoutesInsertsByRootMbr) {
  const std::string path = ::testing::TempDir() + "/gauss_db_spatial_route.db";
  const PfvDataset dataset = MakeDataset(600, 3, 8, /*seed=*/636);
  {
    GaussDbOptions options;
    options.shards.num_shards = kRouteShards;
    GaussDb db = GaussDb::CreateOnFile(path, dataset.dim(), options);
    db.Build(dataset);
  }
  // An object inside exactly one shard's root MBR, and ids that no hash
  // routing (seed 0) would send there.
  Pfv probe;
  size_t owner = kRouteShards;
  {
    const GaussDb db = GaussDb::OpenFile(path).value();
    std::vector<GtChildEntry> roots;
    for (size_t s = 0; s < kRouteShards; ++s) {
      roots.push_back(db.build_tree(s)->RootEntry());
    }
    for (size_t i = 0; i < dataset.size() && owner == kRouteShards; ++i) {
      size_t containing = 0;
      for (size_t s = 0; s < kRouteShards; ++s) {
        if (roots[s].Contains(dataset[i])) {
          ++containing;
          owner = s;
        }
      }
      if (containing != 1) owner = kRouteShards;
      probe = dataset[i];
    }
  }
  ASSERT_LT(owner, kRouteShards);
  const auto off_hash_id = [&](uint64_t first_id) {
    uint64_t id = first_id;
    while (HashShard(id) == owner) ++id;
    return id;
  };

  std::vector<size_t> want;
  {
    GaussDb db = GaussDb::OpenFile(path).value();
    want = BuildTreeSizes(db);
    ++want[owner];
    probe.id = off_hash_id(9'200'000);
    ASSERT_TRUE(db.Insert(probe).ok());
    db.Finalize();  // loads the held insert into the shard it was routed to
    EXPECT_EQ(BuildTreeSizes(db), want);
  }
  {
    GaussDbOptions options;
    options.ingest.enabled = true;
    options.ingest.merge_policy = MergePolicy::kManual;
    GaussDb db = GaussDb::OpenFile(path, options).value();
    Session live = db.Serve({.num_workers = kRouteShards});
    probe.id = off_hash_id(9'300'000);
    ASSERT_EQ(live.Insert(probe).outcome, InsertOutcome::kRoutedToDelta);
    ASSERT_TRUE(db.MergeIngest());
  }
  ++want[owner];
  EXPECT_EQ(BuildTreeSizes(GaussDb::OpenFile(path).value()), want);
  std::remove(path.c_str());
}

// The same differential over per-shard devices: small per-shard caches force
// real misses on every shard file; answers match the oracles and, byte for
// byte and in logical page accesses, a session that caches every shard tree
// whole.
TEST(ShardEquivalenceTest, DirectoryTreeSmallerCacheIsByteIdentical) {
  constexpr size_t kShards = 4;
  const std::string dir = ::testing::TempDir() + "/gauss_db_dir_small_cache";
  // Big enough that every per-shard tree dwarfs its 16-page cache slice.
  const PfvDataset dataset = MakeDataset(6000, 4, 10, /*seed=*/910);
  const Reference ref(dataset, /*probes=*/6, /*seed=*/41);

  GaussDbOptions options;
  options.shards.num_shards = kShards;
  GaussDb db = GaussDb::CreateOnDirectory(dir, dataset.dim(), options);
  db.Build(dataset);

  const auto [small, small_reads] = ServeWithCache(
      db, 2 * kShards, /*cache_pages=*/kShards * 16, ref.batch());
  const auto [full, full_reads] =
      ServeWithCache(db, 2 * kShards, /*cache_pages=*/1 << 14, ref.batch());
  ExpectBatchBytesEqual(small, full);
  ExpectMatchesReference(small, ref);
  EXPECT_GT(small_reads, 0u);
  EXPECT_EQ(small_reads, full_reads);
  RemoveDirectoryLayout(dir, kShards);
}

// The directory-specific typed error paths: a manifest naming a missing
// shard file, a shard list disagreeing with the declared count, a truncated
// manifest, and a future format version must each come back as their
// OpenErrorCode — not abort the opener.
TEST(ShardEquivalenceTest, OpenDirectoryReportsTypedManifestErrors) {
  constexpr size_t kShards = 4;
  const std::string dir = ::testing::TempDir() + "/gauss_db_dir_errors";
  {
    GaussDbOptions options;
    options.shards.num_shards = kShards;
    GaussDb db = GaussDb::CreateOnDirectory(dir, 3, options);
    db.Build(MakeDataset(300, 3, 4, /*seed=*/111));
  }
  const std::string manifest_path = dir + "/MANIFEST";
  std::string manifest;
  {
    std::ifstream in(manifest_path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    manifest = buffer.str();
  }
  const auto write_manifest = [&](const std::string& contents) {
    std::ofstream out(manifest_path, std::ios::trunc);
    out << contents;
  };
  const auto expect_error = [&](OpenErrorCode code, const char* trace) {
    SCOPED_TRACE(trace);
    const OpenResult result = GaussDb::OpenDirectory(dir);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error().code, code);
    EXPECT_FALSE(result.error().message.empty());
  };

  // Missing shard file: hide one the manifest names.
  const std::string shard3 = dir + "/shard-0003.gauss";
  const std::string hidden = shard3 + ".hidden";
  ASSERT_EQ(std::rename(shard3.c_str(), hidden.c_str()), 0);
  expect_error(OpenErrorCode::kMissingShardFile, "missing shard file");
  ASSERT_EQ(std::rename(hidden.c_str(), shard3.c_str()), 0);

  // Shard-count mismatch: declare 4, list 3.
  {
    std::string fewer = manifest;
    const size_t cut = fewer.rfind("shard ");
    ASSERT_NE(cut, std::string::npos);
    fewer.resize(cut);
    write_manifest(fewer);
  }
  expect_error(OpenErrorCode::kShardCountMismatch, "shard count mismatch");

  // Duplicate shard entry (right count, same file twice): two read-write
  // devices on one file would alias trees and corrupt on insert.
  {
    std::string duplicated = manifest;
    const size_t pos = duplicated.find("shard-0001.gauss");
    ASSERT_NE(pos, std::string::npos);
    duplicated.replace(pos, 16, "shard-0000.gauss");
    write_manifest(duplicated);
  }
  expect_error(OpenErrorCode::kCorruptManifest, "duplicate shard file");

  // An unknown partition kind, and a hash image without its seed.
  {
    std::string bogus = manifest;
    const size_t pos = bogus.find("partition spatial");
    ASSERT_NE(pos, std::string::npos);
    write_manifest(bogus.replace(pos, 17, "partition bogus"));
    expect_error(OpenErrorCode::kCorruptManifest, "unknown partition");
    bogus = manifest;
    write_manifest(bogus.replace(pos, 17, "partition hash"));
    expect_error(OpenErrorCode::kCorruptManifest, "hash without a seed");
  }

  // Truncated manifest: header only, metadata gone.
  write_manifest("gaussdb-directory 1\n");
  expect_error(OpenErrorCode::kCorruptManifest, "truncated manifest");

  // Future format version.
  write_manifest("gaussdb-directory 99\n");
  expect_error(OpenErrorCode::kVersionMismatch, "future version");

  // Not a GaussDb directory at all.
  write_manifest("definitely-not-gauss 1\n");
  expect_error(OpenErrorCode::kNotAGaussDb, "foreign manifest");

  // Restore and prove the round trip still works (the checks above were
  // non-destructive).
  write_manifest(manifest);
  const OpenResult ok = GaussDb::OpenDirectory(dir);
  ASSERT_TRUE(ok.ok());

  // No manifest at all: kIoError.
  std::remove(manifest_path.c_str());
  expect_error(OpenErrorCode::kIoError, "missing manifest");

  write_manifest(manifest);
  RemoveDirectoryLayout(dir, kShards);
}

// A writer that crashes between creating MANIFEST.tmp.<pid> and renaming it
// over MANIFEST strands the tmp file forever (the pid suffix means no later
// writer reuses the name). OpenDirectory() sweeps stale tmp files after
// validating the real manifest — and touches nothing else in the directory.
TEST(ShardEquivalenceTest, OpenDirectoryCollectsStaleManifestTmpFiles) {
  constexpr size_t kShards = 3;
  const std::string dir = ::testing::TempDir() + "/gauss_db_dir_stale_tmp";
  {
    GaussDbOptions options;
    options.shards.num_shards = kShards;
    GaussDb db = GaussDb::CreateOnDirectory(dir, 3, options);
    db.Build(MakeDataset(200, 3, 4, /*seed=*/212));
  }
  // Two crashed writers (distinct pids) plus an unrelated file the sweep
  // must leave alone.
  const std::vector<std::string> stale = {dir + "/MANIFEST.tmp.1234",
                                          dir + "/MANIFEST.tmp.99999"};
  const std::string unrelated = dir + "/NOTES.txt";
  for (const std::string& p : stale) {
    std::ofstream(p) << "half-written manifest";
  }
  std::ofstream(unrelated) << "keep me";

  const OpenResult result = GaussDb::OpenDirectory(dir);
  ASSERT_TRUE(result.ok());
  for (const std::string& p : stale) {
    EXPECT_NE(::access(p.c_str(), F_OK), 0) << p << " should have been swept";
  }
  EXPECT_EQ(::access(unrelated.c_str(), F_OK), 0);
  EXPECT_EQ(::access((dir + "/MANIFEST").c_str(), F_OK), 0);

  std::remove(unrelated.c_str());
  RemoveDirectoryLayout(dir, kShards);
}

// Inserts into a reopened sharded database are routed by the shards' root
// MBRs and rebuild the shards they reach from their images plus the new
// objects (GaussDb::Finalize): the served trees hold the union and answer
// like the oracles over it.
TEST(ShardEquivalenceTest, ReopenedShardedFileAcceptsMoreInserts) {
  const std::string path = ::testing::TempDir() + "/gauss_db_sharded_grow.db";
  const PfvDataset first = MakeDataset(300, 3, 6, /*seed=*/606);
  const PfvDataset second = MakeDataset(200, 3, 6, /*seed=*/607);
  PfvDataset both = first;
  {
    GaussDbOptions options;
    options.shards.num_shards = 4;
    GaussDb db = GaussDb::CreateOnFile(path, first.dim(), options);
    db.Build(first);
  }
  {
    GaussDb db = GaussDb::OpenFile(path).value();
    // Offset ids so the two datasets don't collide.
    for (size_t i = 0; i < second.size(); ++i) {
      Pfv pfv = second[i];
      pfv.id += 1'000'000;
      EXPECT_EQ(db.Insert(pfv).outcome, InsertOutcome::kRoutedToBuild);
      both.Add(pfv);
    }
    EXPECT_EQ(db.size(), both.size());
    Session session = db.Serve({.num_workers = 4});
    size_t total = 0;
    for (size_t s = 0; s < session.num_shards(); ++s) {
      session.shard_tree(s).Validate();
      total += session.shard_tree(s).size();
    }
    EXPECT_EQ(total, first.size() + second.size());
    const Reference ref(both, /*probes=*/6, /*seed=*/608);
    ExpectMatchesReference(session.ExecuteBatch(ref.batch()), ref);
  }
  std::remove(path.c_str());
}

// A build-phase rebuild retires the shard's old image, and a device's free
// list does not outlive the process: the next process's rebuild finds those
// pages again and writes there first. So a file that goes through
// reopen-insert-serve cycles holds at most two images, not one per cycle.
TEST(ShardEquivalenceTest, ReopenInsertCyclesReuseRetiredPages) {
  const std::string path = ::testing::TempDir() + "/gauss_db_reopen_cycles.db";
  const PfvDataset base = MakeDataset(1500, 3, 6, /*seed=*/615);
  for (const size_t shards : {size_t{0}, size_t{4}}) {
    SCOPED_TRACE("num_shards=" + std::to_string(shards));
    GaussDbOptions options;
    options.shards.num_shards = shards;
    {
      GaussDb db = GaussDb::CreateOnFile(path, base.dim(), options);
      db.Build(base);
    }
    PfvDataset all = base;
    for (uint64_t cycle = 1; cycle <= 3; ++cycle) {
      SCOPED_TRACE("cycle " + std::to_string(cycle));
      GaussDb db = GaussDb::OpenFile(path, options).value();
      const PfvDataset more = MakeDataset(100, 3, 6, /*seed=*/615 + cycle);
      for (Pfv pfv : more.objects()) {
        pfv.id += cycle * 1'000'000;
        ASSERT_EQ(db.Insert(pfv).outcome, InsertOutcome::kRoutedToBuild);
        all.Add(pfv);
      }
      Session session = db.Serve({.num_workers = 2});
      const Reference ref(all, /*probes=*/4, /*seed=*/619 + cycle);
      ExpectMatchesReference(session.ExecuteBatch(ref.batch()), ref);
      GaussDb fresh = GaussDb::CreateInMemory(base.dim(), options);
      fresh.Build(all);
      EXPECT_LE(db.device().PageCount(), 2 * fresh.device().PageCount());
    }
  }
  std::remove(path.c_str());
}

// One build path: a gallery Insert()ed into an empty database and served
// writes the device image Build() of the same objects in the same order
// writes — unsharded, over one shard and over four, in memory and on file —
// so both answer byte for byte alike, at the same logical page reads.
TEST(ShardEquivalenceTest, InsertThenServeWritesTheBuildImage) {
  const std::string path = ::testing::TempDir() + "/gauss_db_insert_image.db";
  const PfvDataset dataset = MakeDataset(3000, 4, 10, /*seed=*/611);
  const Reference ref(dataset, /*probes=*/6, /*seed=*/612);
  for (const bool on_file : {false, true}) {
    for (const size_t shards : {size_t{0}, size_t{1}, size_t{4}}) {
      SCOPED_TRACE(std::string(on_file ? "file" : "memory") +
                   " num_shards=" + std::to_string(shards));
      struct Served {
        uint64_t image;
        BatchResult answers;
        uint64_t reads;
      };
      const auto serve = [&](bool by_insert) {
        GaussDbOptions options;
        options.shards.num_shards = shards;
        GaussDb db =
            on_file ? GaussDb::CreateOnFile(path, dataset.dim(), options)
                    : GaussDb::CreateInMemory(dataset.dim(), options);
        if (by_insert) {
          for (const Pfv& pfv : dataset.objects()) {
            EXPECT_EQ(db.Insert(pfv).outcome, InsertOutcome::kRoutedToBuild);
          }
          EXPECT_EQ(db.size(), dataset.size());
          EXPECT_FALSE(db.finalized());
        } else {
          db.Build(dataset);
        }
        auto [answers, reads] =
            ServeWithCache(db, /*workers=*/2, /*cache_pages=*/1 << 14,
                           ref.batch());
        return Served{ImageHash(db.device()), std::move(answers), reads};
      };
      const Served built = serve(/*by_insert=*/false);
      const Served inserted = serve(/*by_insert=*/true);
      EXPECT_EQ(inserted.image, built.image);
      EXPECT_EQ(inserted.reads, built.reads);
      ExpectBatchBytesEqual(inserted.answers, built.answers);
      ExpectMatchesReference(inserted.answers, ref);
    }
  }
  std::remove(path.c_str());
}

// A database finalized empty takes its gallery by Insert() afterwards: each
// shard is rebuilt from its empty image plus its objects, on file, where a
// stale cache frame of a rewritten page would show.
TEST(ShardEquivalenceTest, FinalizedEmptyFileGrowsByInsert) {
  const std::string path = ::testing::TempDir() + "/gauss_db_empty_grow.db";
  const PfvDataset dataset = MakeDataset(1500, 3, 6, /*seed=*/613);
  const Reference ref(dataset, /*probes=*/6, /*seed=*/614);
  for (const size_t shards : {size_t{0}, size_t{4}}) {
    SCOPED_TRACE("num_shards=" + std::to_string(shards));
    GaussDbOptions options;
    options.shards.num_shards = shards;
    GaussDb db = GaussDb::CreateOnFile(path, dataset.dim(), options);
    db.Finalize();
    EXPECT_TRUE(db.finalized());
    for (const Pfv& pfv : dataset.objects()) ASSERT_TRUE(db.Insert(pfv).ok());
    db.Finalize();
    EXPECT_EQ(db.size(), dataset.size());
    Session session = db.Serve({.num_workers = 2});
    size_t total = 0;
    for (size_t s = 0; s < session.num_shards(); ++s) {
      session.shard_tree(s).Validate();
      total += session.shard_tree(s).size();
    }
    EXPECT_EQ(total, dataset.size());
    ExpectMatchesReference(session.ExecuteBatch(ref.batch()), ref);
  }
  std::remove(path.c_str());
}

// ----------------------- loopback RPC differential ---------------------------
//
// The distributed transport (src/net/) must be invisible to correctness: a
// ServeRemote() session whose shards sit behind real ShardServers on loopback
// TCP sockets has to produce byte-identical answers to the in-process
// coordinator over the very same shard services. Running both sessions
// against one database turns any wire-format, rebasing, or refinement-
// batching divergence into a bit mismatch here.

// One sharded database served twice: in-process, and through per-shard
// ShardServers plus a ServeRemote() session dialing 127.0.0.1. Each server
// answers on a QueryService of its own over the local session's shard tree.
// Member order is load-bearing — destruction runs remote session (hangs up),
// then the servers it spoke to, then their services, then the local session
// owning the shard trees.
class LoopbackStack {
 public:
  LoopbackStack(const PfvDataset& dataset, size_t num_shards) {
    GaussDbOptions options;
    options.shards.num_shards = num_shards;
    db_.emplace(GaussDb::CreateInMemory(dataset.dim(), options));
    db_->Build(dataset);
    local_.emplace(db_->Serve({.num_workers = 2 * num_shards}));
    std::vector<std::string> endpoints;
    for (size_t s = 0; s < local_->num_shards(); ++s) {
      services_.push_back(std::make_unique<QueryService>(
          local_->shard_tree(s), QueryServiceOptions{.num_workers = 2}));
      NetError error;
      std::unique_ptr<ShardServer> server =
          ShardServer::Listen(services_.back().get(), {}, &error);
      if (server == nullptr) {
        ADD_FAILURE() << "ShardServer::Listen: " << error.ToString();
        return;
      }
      endpoints.push_back("127.0.0.1:" + std::to_string(server->port()));
      servers_.push_back(std::move(server));
    }
    ServeResult connected = GaussDb::ServeRemote(endpoints);
    if (!connected.ok()) {
      ADD_FAILURE() << "ServeRemote: " << connected.error().ToString();
      return;
    }
    remote_.emplace(std::move(connected).value());
  }

  bool ok() const { return remote_.has_value(); }
  PageDevice& device() { return db_->device(); }
  Session& local() { return *local_; }
  Session& remote() { return *remote_; }
  void ShutdownServers() {
    for (std::unique_ptr<ShardServer>& server : servers_) server->Shutdown();
  }
  void ShutdownServer(size_t s) { servers_[s]->Shutdown(); }

 private:
  std::optional<GaussDb> db_;
  std::optional<Session> local_;
  std::vector<std::unique_ptr<QueryService>> services_;
  std::vector<std::unique_ptr<ShardServer>> servers_;
  std::optional<Session> remote_;
};

void ExpectBitwiseEqualDoubles(double got, double want) {
  EXPECT_EQ(std::memcmp(&got, &want, sizeof(double)), 0);
}

// Acceptance criterion for the transport: every shard count 1-8, the full
// variant batch (both TIQ exact_membership modes, refinement-forcing tight
// accuracies) comes back byte-identical over RPC — items, denominator
// bounds, and the seq-scan oracle's id sets all agree with the in-process
// coordinator.
TEST(ShardEquivalenceTest, LoopbackRpcMatchesInProcessAcrossShardCounts) {
  const PfvDataset dataset = MakeDataset(500, 3, 6, /*seed=*/1212);
  const Reference ref(dataset, /*probes=*/5, /*seed=*/1213);
  for (size_t shards = 1; shards <= 8; ++shards) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    LoopbackStack stack(dataset, shards);
    ASSERT_TRUE(stack.ok());
    EXPECT_EQ(stack.remote().num_workers(), 2u);  // coordinator threads
    const BatchResult local = stack.local().ExecuteBatch(ref.batch());
    const BatchResult remote = stack.remote().ExecuteBatch(ref.batch());
    ASSERT_EQ(remote.responses.size(), ref.batch().size());
    ASSERT_EQ(local.responses.size(), ref.batch().size());
    for (size_t i = 0; i < remote.responses.size(); ++i) {
      SCOPED_TRACE("query " + std::to_string(i));
      const Query& query = ref.batch()[i];
      const QueryResponse& got = remote.responses[i];
      const QueryResponse& want = local.responses[i];
      ASSERT_EQ(got.status, QueryResponse::Status::kOk) << got.error.ToString();
      ASSERT_EQ(want.status, QueryResponse::Status::kOk);
      EXPECT_EQ(got.kind, query.kind());
      test::ExpectItemsBytesEqual(got.items, want.items);
      // The combined Bayes-denominator interval survived the wire bit-exactly.
      ExpectBitwiseEqualDoubles(got.stats.denominator_lo,
                                want.stats.denominator_lo);
      ExpectBitwiseEqualDoubles(got.stats.denominator_hi,
                                want.stats.denominator_hi);
      // Independent oracle: the exhaustive scan's id sets.
      if (IsLazyTiq(query)) continue;
      if (query.kind() == QueryKind::kTiq) {
        EXPECT_EQ(Ids(got.items), Ids(ref.ScanTiq(i)));
      } else {
        EXPECT_EQ(Ids(got.items), Ids(ref.ScanMliq(i, query.k())));
      }
    }
  }
}

// Refinement over the wire. Under mass-proportional budgets the coordinator
// owns certification (per-shard Start queries suppress the shard-local
// relative test), so accuracy-refining queries drive coordinator rounds; and
// exact membership with the threshold sitting exactly at a candidate's true
// probability forces further rounds — the first pass cannot certify a
// candidate against a threshold inside its interval, so batched kRefine
// rounds continue until the interval clears (or the shards exhaust). The
// per-query refinement work is deterministic — the same number of refine
// requests whether the shard is a function call or a socket away. (Round
// counts measure coalescing, which is timing-dependent; only their
// existence and rounds <= requests are asserted.)
TEST(ShardEquivalenceTest, LoopbackRpcRefinementRoundsAreBatchedAndCounted) {
  const PfvDataset dataset = MakeDataset(1000, 3, 8, /*seed=*/1414);
  LoopbackStack stack(dataset, /*num_shards=*/3);
  ASSERT_TRUE(stack.ok());

  // Refinement-forcing thresholds: each probe's top-2 true probabilities,
  // certified to 1e-9 by the in-process session.
  WorkloadConfig wconfig;
  wconfig.query_count = 8;
  wconfig.seed = 1415;
  std::vector<Query> batch;
  for (const IdentificationQuery& q : GenerateWorkload(dataset, wconfig)) {
    const QueryResponse top =
        stack.local().Submit(Query::Mliq(q.query, 2).Accuracy(1e-9)).get();
    ASSERT_EQ(top.status, QueryResponse::Status::kOk);
    for (const IdentificationResult& item : top.items) {
      if (item.probability > 0.0 && item.probability < 1.0) {
        batch.push_back(
            Query::Tiq(q.query, item.probability).ExactMembership(true));
      }
    }
  }
  ASSERT_FALSE(batch.empty());

  const BatchResult local = stack.local().ExecuteBatch(batch);
  const BatchResult remote = stack.remote().ExecuteBatch(batch);
  ASSERT_EQ(remote.responses.size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    SCOPED_TRACE("query " + std::to_string(i));
    ASSERT_EQ(remote.responses[i].status, QueryResponse::Status::kOk)
        << remote.responses[i].error.ToString();
    test::ExpectItemsBytesEqual(remote.responses[i].items,
                                local.responses[i].items);
  }
  EXPECT_GT(remote.stats.refine_rounds, 0u);
  EXPECT_GE(remote.stats.refine_batched_queries, remote.stats.refine_rounds);
  EXPECT_EQ(remote.stats.refine_batched_queries,
            local.stats.refine_batched_queries);
}

// Deterministic fault injection, phase one: every shard server is shut down
// between batches, so each query of the next batch must come back as a typed
// kShardError (connection gone -> kPeerClosed) without hanging — and the
// error is per-query, counted once each in the merged stats.
TEST(ShardEquivalenceTest, ShardServerShutdownBetweenBatchesFailsTyped) {
  const PfvDataset dataset = MakeDataset(300, 3, 4, /*seed=*/1515);
  LoopbackStack stack(dataset, /*num_shards=*/2);
  ASSERT_TRUE(stack.ok());

  WorkloadConfig wconfig;
  wconfig.query_count = 3;
  wconfig.seed = 1516;
  std::vector<Query> batch;
  for (const IdentificationQuery& q : GenerateWorkload(dataset, wconfig)) {
    batch.push_back(Query::Mliq(q.query, 3).Accuracy(kAccuracy));
    batch.push_back(Query::Tiq(q.query, kThreshold).ExactMembership(true));
  }

  const BatchResult warm = stack.remote().ExecuteBatch(batch);
  for (const QueryResponse& response : warm.responses) {
    ASSERT_EQ(response.status, QueryResponse::Status::kOk)
        << response.error.ToString();
  }

  stack.ShutdownServers();
  const BatchResult cold = stack.remote().ExecuteBatch(batch);
  ASSERT_EQ(cold.responses.size(), batch.size());
  for (size_t i = 0; i < cold.responses.size(); ++i) {
    SCOPED_TRACE("query " + std::to_string(i));
    EXPECT_EQ(cold.responses[i].status, QueryResponse::Status::kShardError);
    EXPECT_FALSE(cold.responses[i].error.ok());
    EXPECT_EQ(cold.responses[i].error.code, NetErrorCode::kPeerClosed);
    EXPECT_TRUE(cold.responses[i].items.empty());
  }
  EXPECT_EQ(cold.stats.shard_error_queries, batch.size());
}

// Phase two: a shard dies in the middle of a heavy in-flight batch. Every
// outstanding future must still resolve — kOk if its scatter-gather finished
// before the cut, typed kShardError otherwise, never a hang (the ctest
// timeout is the watchdog) — and tearing the session down afterwards drains
// cleanly with the server gone.
TEST(ShardEquivalenceTest, ShardServerShutdownMidBatchResolvesEveryQuery) {
  const PfvDataset dataset = MakeDataset(800, 4, 8, /*seed=*/1717);
  LoopbackStack stack(dataset, /*num_shards=*/3);
  ASSERT_TRUE(stack.ok());

  WorkloadConfig wconfig;
  wconfig.query_count = 20;
  wconfig.seed = 1718;
  std::vector<Query> batch;
  for (const IdentificationQuery& q : GenerateWorkload(dataset, wconfig)) {
    // Tight accuracy keeps refinement traffic on the wire while the plug is
    // pulled, exercising the in-flight failure path, not just admission.
    batch.push_back(Query::Mliq(q.query, 5).Accuracy(1e-9));
    batch.push_back(
        Query::Tiq(q.query, kThreshold).ExactMembership(true).Accuracy(1e-9));
  }

  std::vector<std::future<QueryResponse>> futures;
  futures.reserve(batch.size());
  for (const Query& query : batch) {
    futures.push_back(stack.remote().Submit(query));
  }
  stack.ShutdownServer(0);

  size_t ok = 0;
  size_t shard_errors = 0;
  for (size_t i = 0; i < futures.size(); ++i) {
    SCOPED_TRACE("query " + std::to_string(i));
    const QueryResponse response = futures[i].get();
    if (response.status == QueryResponse::Status::kOk) {
      ++ok;
    } else {
      ASSERT_EQ(response.status, QueryResponse::Status::kShardError);
      EXPECT_FALSE(response.error.ok());
      ++shard_errors;
    }
  }
  EXPECT_EQ(ok + shard_errors, batch.size());
  // The remaining live shards must still answer fresh traffic is NOT a
  // guarantee (the coordinator needs every shard); what is guaranteed is a
  // typed, prompt error — not a hang.
  const QueryResponse after =
      stack.remote().Submit(Query::Mliq(batch[0].pfv(), 1)).get();
  EXPECT_EQ(after.status, QueryResponse::Status::kShardError);
  EXPECT_FALSE(after.error.ok());
}

// ================= mass-proportional refinement budgets =====================
//
// The sharding I/O tax: refining every shard to a relative epsilon against
// its own denominator bounds costs roughly the same I/O per shard no matter
// how little combined-denominator mass the shard holds. The coordinator's
// mass-proportional policy suppresses the shard-local certification and
// water-fills a combined-interval budget across shards instead — and the
// tests below pin both its correctness (byte-identity, oracle id sets) and
// the win itself (strictly fewer pages than the uniform-halving baseline on
// a skewed partition).

// A 90/10 gallery over two hand-wired shards: the heavy part sits at the
// gallery's core; the light part is displaced away from it — far enough
// that it carries a vanishing share of any near-core probe's denominator
// mass, but near enough that its exact densities stay strictly positive (no
// underflow; the combined lower bound must remain certifiable). This is the
// shape that exposes the sharding I/O tax: a shard whose hull-bound RATIOS
// at the probe are loose (distance inflates the upper/lower hull spread)
// but whose absolute contribution is negligible. GaussDb cuts its shards by
// space and would never produce this split, so the parts are wired by hand
// as InProcessBackends over per-shard trees, the way shard_serving_test
// does.
struct SkewedParts {
  PfvDataset all;
  PfvDataset heavy;
  PfvDataset light;
};

SkewedParts SkewedDataset(size_t size, size_t dim, double heavy_fraction) {
  const PfvDataset base = MakeDataset(size, dim, 8, /*seed=*/2222);
  const size_t heavy = static_cast<size_t>(heavy_fraction * size);
  SkewedParts parts{PfvDataset(dim), PfvDataset(dim), PfvDataset(dim)};
  for (size_t i = 0; i < size; ++i) {
    Pfv pfv = base[i];
    if (i >= heavy) {
      // ~1.5 units at sigma >= 0.05 keeps log-density deficits well inside
      // exp() range: the light shard is remote, not impossible.
      for (double& mu : pfv.mu) mu += 1.5;
    }
    parts.all.Add(pfv);
    (i < heavy ? parts.heavy : parts.light).Add(pfv);
  }
  return parts;
}

// One hand-wired shard: a bulk-loaded tree reopened over a serving cache.
class WiredShard {
 public:
  explicit WiredShard(const PfvDataset& part) {
    PageId meta = kInvalidPageId;
    {
      ShardedBufferPool build(&device_, 1 << 14, /*num_shards=*/1);
      GaussTree tree(&build, part.dim());
      tree.BulkLoad(part);
      tree.Finalize();
      meta = tree.meta_page();
    }
    pool_ = std::make_unique<ShardedBufferPool>(&device_, 1 << 12);
    tree_ = GaussTree::Open(pool_.get(), meta);
  }

  const GaussTree& tree() const { return *tree_; }

 private:
  InMemoryPageDevice device_;
  std::unique_ptr<ShardedBufferPool> pool_;
  std::unique_ptr<GaussTree> tree_;
};

// Logical page reads of the tight batch below under mass-proportional
// refinement with the seeded Start, and under the uniform-halving policy
// mass-proportional budgets replaced (every non-exhausted shard halved its
// local gap each round, recorded before the seeded Start). Both counts were
// recorded over the very same 90/10 parts and repeat exactly across runs
// and under GAUSS_FORCE_SCALAR=1: logical reads depend only on the
// traversals, never on cache state, scheduling or the kernel backend.
constexpr uint64_t kSkewedTightProportionalReads = 310;
constexpr uint64_t kSkewedTightUniformHalvingReads = 368;

// On a 90/10 partition, the mass-proportional coordinator must (a) match
// the single-tree reference and seq-scan oracle, and (b) read exactly its
// recorded page count on a batch tight enough to force refinement, which is
// strictly fewer pages than the uniform-halving policy read over the same
// parts — the light shard stops paying full refinement freight.
TEST(ShardEquivalenceTest, SkewedPartitionProportionalBudgetsBeatUniform) {
  constexpr size_t kSize = 3000;
  const SkewedParts parts = SkewedDataset(kSize, 3, /*heavy=*/0.9);
  const Reference ref(parts.all, /*probes=*/6, /*seed=*/2223);

  WiredShard heavy(parts.heavy);
  WiredShard light(parts.light);
  InProcessBackend shard0(heavy.tree());
  InProcessBackend shard1(light.tree());
  ShardCoordinator proportional(std::vector<ShardBackend*>{&shard0, &shard1});
  const BatchResult prop = proportional.ExecuteBatch(ref.batch());

  ASSERT_EQ(prop.responses.size(), ref.batch().size());
  for (size_t i = 0; i < ref.batch().size(); ++i) {
    SCOPED_TRACE("query " + std::to_string(i));
    const Query& query = ref.batch()[i];
    ASSERT_EQ(prop.responses[i].status, QueryResponse::Status::kOk);
    if (IsLazyTiq(query)) {
      ExpectLazyTiqContract(prop.responses[i].items, ref.ScanTiq(i));
      continue;
    }
    ExpectEquivalent(prop.responses[i].items,
                     ref.single_tree().responses[i].items,
                     RefinesProbabilities(query));
    if (query.kind() == QueryKind::kTiq) {
      EXPECT_EQ(Ids(prop.responses[i].items), Ids(ref.ScanTiq(i)));
    } else {
      EXPECT_EQ(Ids(prop.responses[i].items),
                Ids(ref.ScanMliq(i, query.k())));
    }
  }

  // The standard variants certify off the identification traversal alone
  // (kAccuracy = 1e-4 is met before any refinement round fires), so the
  // I/O comparison runs a batch tight enough that the denominator MUST be
  // refined — that is where the light shard's freight shows up. Under
  // uniform halving the light shard certified against its own small lower
  // bound (relative eps, ~full refinement depth regardless of mass); under
  // proportional budgets its absolute target is set by the combined
  // interval, which the heavy shard dominates, so the light shard stops
  // early.
  constexpr double kTightAccuracy = 1e-6;
  std::vector<Query> tight;
  std::vector<size_t> source;  // ref.batch() index behind each tight query
  for (size_t i = 0; i < ref.batch().size(); ++i) {
    const Query& query = ref.batch()[i];
    if (query.kind() != QueryKind::kMliq) continue;
    if (!query.mliq_options().refine_probabilities) continue;
    tight.push_back(Query::Mliq(query.pfv(), 3).Accuracy(kTightAccuracy));
    tight.push_back(Query::Tiq(query.pfv(), kThreshold)
                        .ExactMembership(true)
                        .Accuracy(kTightAccuracy));
    source.push_back(i);
    source.push_back(i);
  }
  ASSERT_FALSE(tight.empty());
  const BatchResult prop_tight = proportional.ExecuteBatch(tight);
  for (size_t i = 0; i < tight.size(); ++i) {
    SCOPED_TRACE("tight query " + std::to_string(i));
    ASSERT_EQ(prop_tight.responses[i].status, QueryResponse::Status::kOk);
    // At 1e-6 the intervals are hard: exactly the scan's identities.
    if (tight[i].kind() == QueryKind::kTiq) {
      EXPECT_EQ(Ids(prop_tight.responses[i].items),
                Ids(ref.ScanTiq(source[i])));
    } else {
      EXPECT_EQ(Ids(prop_tight.responses[i].items),
                Ids(ref.ScanMliq(source[i], 3)));
    }
  }
  EXPECT_EQ(prop_tight.stats.io.logical_reads, kSkewedTightProportionalReads);
  EXPECT_LT(kSkewedTightProportionalReads, kSkewedTightUniformHalvingReads);
}

// A probe so far from the gallery that every exact object density
// underflows to zero in the root-hull reference scale leaves the combined
// denominator lower bound at zero — the relative certification test
// (gap <= eps * lo) is then unreachable, and the coordinator used to refine
// until every shard had exhausted its whole tree: a full scan. The absolute
// gap floor must terminate refinement instead: kOk, honest bounds, and
// strictly less work than evaluating the entire gallery.
TEST(ShardEquivalenceTest, ZeroLowerBoundQueryTerminatesWithoutFullScan) {
  const PfvDataset dataset = MakeDataset(2000, 3, 8, /*seed=*/3434);
  GaussDbOptions options;
  options.shards.num_shards = 3;
  GaussDb db = GaussDb::CreateInMemory(dataset.dim(), options);
  db.Build(dataset);
  Session session = db.Serve({.num_workers = 6});

  const Pfv probe(777, std::vector<double>(dataset.dim(), 1.0e5),
                  std::vector<double>(dataset.dim(), 0.05));
  const QueryResponse resp =
      session.Submit(Query::Mliq(probe, 3).Accuracy(1e-4)).get();
  ASSERT_EQ(resp.status, QueryResponse::Status::kOk);
  // The interval is honest (lo <= hi, lo pinned at zero by underflow) ...
  EXPECT_EQ(resp.stats.denominator_lo, 0.0);
  EXPECT_LE(resp.stats.denominator_lo, resp.stats.denominator_hi);
  // ... and certification did NOT fall back to evaluating the whole gallery
  // in pursuit of a relative test that can never fire at lo == 0.
  EXPECT_LT(resp.stats.objects_evaluated, dataset.size());
}

// Flips 1-3 random bits inside the used bytes of four random node pages of
// `disk`, runs ref.batch() through `session` with the caches dropped, and
// repairs the pages; six rounds. Every response must be oracle-identical or
// a typed corrupt error — kCorrupt from one tree, kShardError carrying
// NetErrorCode::kCorrupt from a coordinator. Returns the corrupt count.
size_t RunBitFlipRounds(PageDevice* disk, size_t dim, const Reference& ref,
                        Session& session, const std::function<void()>& drop,
                        uint64_t seed) {
  std::vector<PageId> node_pages;
  for (const PageId meta : test::TreeHeaderPages(*disk)) {
    for (const PageId id : test::TreeNodePages(*disk, meta)) {
      node_pages.push_back(id);
    }
  }
  Rng rng(seed);
  std::vector<uint8_t> page(disk->page_size());
  size_t corrupt = 0;
  for (int round = 0; round < 6; ++round) {
    std::vector<std::pair<PageId, std::vector<uint8_t>>> originals;
    for (int p = 0; p < 4; ++p) {
      const PageId id = node_pages[rng.UniformInt(node_pages.size())];
      disk->Read(id, page.data());
      originals.emplace_back(id, page);
      const size_t used =
          GtNode::Deserialize(page.data(), dim, id).SerializedSize(dim);
      for (uint64_t flips = 1 + rng.UniformInt(3); flips > 0; --flips) {
        const uint64_t bit = rng.UniformInt(8 * used);
        page[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
      }
      disk->Write(id, page.data());
    }
    drop();
    const BatchResult result = session.ExecuteBatch(ref.batch());
    EXPECT_EQ(result.responses.size(), ref.batch().size());
    for (size_t i = 0; i < result.responses.size(); ++i) {
      const QueryResponse& got = result.responses[i];
      if (got.status == QueryResponse::Status::kCorrupt) {
        EXPECT_FALSE(session.sharded()) << "query " << i;
        ++corrupt;
      } else if (got.status == QueryResponse::Status::kShardError) {
        EXPECT_TRUE(session.sharded()) << "query " << i;
        EXPECT_EQ(got.error.code, NetErrorCode::kCorrupt)
            << "query " << i << ": " << got.error.ToString();
        ++corrupt;
      } else {
        ExpectResponseMatches(got, i, ref);
      }
    }
    // Repair in reverse, so a page picked twice ends as it began.
    for (auto it = originals.rbegin(); it != originals.rend(); ++it) {
      disk->Write(it->first, it->second.data());
    }
  }
  // Repaired pages are read afresh: the answers are whole again.
  drop();
  ExpectMatchesReference(session.ExecuteBatch(ref.batch()), ref);
  return corrupt;
}

// Bit flips inside the used bytes of node pages on disk, behind a small
// cache, never surface as a wrong answer or an abort: one tree, one shard
// and four shards of a file, and four shards over RPC. Damage left on disk
// makes OpenFile fail with kCorruptPage.
TEST(ShardEquivalenceTest, FlippedNodePageBitsFailTypedNeverWrong) {
  const PfvDataset dataset = MakeDataset(5000, 4, 12, /*seed=*/707);
  const Reference ref(dataset, /*probes=*/8, /*seed=*/29);

  for (const size_t shards : {size_t{0}, size_t{1}, size_t{4}}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    const std::string path = ::testing::TempDir() + "/gauss_db_bitflip.db";
    GaussDbOptions options;
    options.shards.num_shards = shards;
    {
      GaussDb db = GaussDb::CreateOnFile(path, dataset.dim(), options);
      db.Build(dataset);
    }
    // A second descriptor on the file stands in for the disk going bad
    // under the serving process.
    FilePageDevice disk(path, kDefaultPageSize, /*truncate=*/false);
    GaussDb db = GaussDb::OpenFile(path).value();
    Session session = db.Serve({.num_workers = 2, .cache_pages = 64});
    const auto drop = [&] {
      for (size_t s = 0; s < session.num_shards(); ++s) {
        session.shard_tree(s).pool()->Clear();
      }
    };
    EXPECT_GT(RunBitFlipRounds(&disk, dataset.dim(), ref, session, drop,
                               /*seed=*/4242 + shards),
              0u)
        << "no flip reached a query";

    // Damage one page for good: the node walk of OpenFile reports it typed.
    const PageId victim =
        test::TreeNodePages(disk, test::TreeHeaderPages(disk).back()).back();
    std::vector<uint8_t> page(disk.page_size());
    disk.Read(victim, page.data());
    page[9] ^= 0x10;  // inside the first id or child entry
    disk.Write(victim, page.data());
    const OpenResult reopened = GaussDb::OpenFile(path);
    ASSERT_FALSE(reopened.ok());
    EXPECT_EQ(reopened.error().code, OpenErrorCode::kCorruptPage);
    EXPECT_NE(reopened.error().message.find("checksum"), std::string::npos)
        << reopened.error().message;
    std::remove(path.c_str());
  }

  // Over the wire: each shard server's traversal fails Start or Refine with
  // kCorrupt, and the front door passes the code on.
  LoopbackStack stack(dataset, /*num_shards=*/4);
  ASSERT_TRUE(stack.ok());
  const auto drop = [&] {
    for (size_t s = 0; s < stack.local().num_shards(); ++s) {
      stack.local().shard_tree(s).pool()->Clear();
    }
  };
  EXPECT_GT(RunBitFlipRounds(&stack.device(), dataset.dim(), ref,
                             stack.remote(), drop, /*seed=*/4343),
            0u);
}

}  // namespace
}  // namespace gauss
