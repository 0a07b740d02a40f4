#include <cmath>
#include <deque>
#include <set>

#include <gtest/gtest.h>

#include "common/random.h"
#include "data/generators.h"
#include "data/paper_datasets.h"
#include "gausstree/gauss_tree.h"
#include "gausstree/mliq.h"
#include "gausstree/tiq.h"
#include "pfv/pfv_file.h"
#include "scan/seq_scan.h"
#include "storage/page_device.h"
#include "storage/sharded_buffer_pool.h"

namespace gauss {
namespace {

Pfv RandomPfv(Rng& rng, uint64_t id, size_t dim) {
  std::vector<double> mu(dim), sigma(dim);
  for (double& m : mu) m = rng.Uniform(0, 1);
  for (double& s : sigma) s = rng.Uniform(0.01, 0.2);
  return Pfv(id, std::move(mu), std::move(sigma));
}

PfvDataset RandomDataset(uint64_t seed, size_t n, size_t dim) {
  Rng rng(seed);
  PfvDataset dataset(dim);
  for (uint64_t i = 0; i < n; ++i) dataset.Add(RandomPfv(rng, i, dim));
  return dataset;
}

// Keys drawn from three mu and two sigma values, so most comparisons in
// the median selection are exact ties.
PfvDataset TiedDataset(uint64_t seed, size_t n, size_t dim) {
  constexpr double kMus[] = {0.0, 0.5, 1.0};
  constexpr double kSigmas[] = {0.05, 0.1};
  Rng rng(seed);
  PfvDataset dataset(dim);
  for (uint64_t i = 0; i < n; ++i) {
    std::vector<double> mu(dim), sigma(dim);
    for (double& m : mu) m = kMus[rng.UniformInt(3)];
    for (double& s : sigma) s = kSigmas[rng.UniformInt(2)];
    dataset.Add(Pfv(i, std::move(mu), std::move(sigma)));
  }
  return dataset;
}

void Fnv1a(const void* data, size_t n, uint64_t* hash) {
  const auto* bytes = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < n; ++i) {
    *hash ^= bytes[i];
    *hash *= 0x100000001b3ull;
  }
}

// FNV-1a over every page of the device: the tree's whole persisted image.
uint64_t ImageHash(const PageDevice& device) {
  uint64_t hash = 0xcbf29ce484222325ull;
  std::vector<uint8_t> page(device.page_size());
  for (PageId id = 0; id < device.PageCount(); ++id) {
    device.Read(id, page.data());
    Fnv1a(page.data(), page.size(), &hash);
  }
  return hash;
}

// FNV-1a over the tree's logical content, node by node in breadth-first
// order: kind, entry count, then every id, child id, count and double. The
// page format does not enter it, so one tree hashes the same in every
// format version.
uint64_t LogicalHash(const GaussTree& tree) {
  uint64_t hash = 0xcbf29ce484222325ull;
  std::deque<PageId> queue{tree.root()};
  GtNode node;
  while (!queue.empty()) {
    tree.store().Load(queue.front(), &node);
    queue.pop_front();
    const uint8_t kind = static_cast<uint8_t>(node.kind);
    const uint64_t n = node.EntryCount();
    Fnv1a(&kind, sizeof(kind), &hash);
    Fnv1a(&n, sizeof(n), &hash);
    for (const Pfv& pfv : node.pfvs) {
      Fnv1a(&pfv.id, sizeof(pfv.id), &hash);
      Fnv1a(pfv.mu.data(), pfv.mu.size() * sizeof(double), &hash);
      Fnv1a(pfv.sigma.data(), pfv.sigma.size() * sizeof(double), &hash);
    }
    for (const GtChildEntry& e : node.children) {
      Fnv1a(&e.child, sizeof(e.child), &hash);
      Fnv1a(&e.count, sizeof(e.count), &hash);
      Fnv1a(e.bounds.data(), e.bounds.size() * sizeof(DimBounds), &hash);
      queue.push_back(e.child);
    }
  }
  return hash;
}

// Bulk-loads `dataset` with 1, 2 and 4 threads and checks that every image
// hashes to `expected_image` and every tree to `expected_logical`. A change
// to either is a change to every database built since, not a refactoring.
// The logical constants were recorded with the loader and page format that
// predate the v3 node format, so they pin that the format change moved
// bytes, not content; the image constants were re-recorded with it.
void ExpectPinnedImage(const PfvDataset& dataset, uint32_t page_size,
                       uint64_t expected_image, uint64_t expected_logical) {
  for (size_t threads : {1, 2, 4}) {
    InMemoryPageDevice device(page_size);
    ShardedBufferPool pool(&device, 1 << 14, /*num_shards=*/1);
    GaussTree tree(&pool, dataset.dim());
    tree.BulkLoad(dataset, threads);
    tree.Finalize();
    tree.Validate();
    EXPECT_EQ(tree.size(), dataset.size());
    EXPECT_EQ(ImageHash(device), expected_image) << "threads=" << threads;
    EXPECT_EQ(LogicalHash(tree), expected_logical) << "threads=" << threads;
  }
}

TEST(BulkLoadTest, PaperDataset2ImageIsPinnedAtEveryThreadCount) {
  ExpectPinnedImage(GeneratePaperDataset2(20000).dataset, kDefaultPageSize,
                    0x2429a450cfe1fe6cull, 0xdd9320e128577607ull);
}

TEST(BulkLoadTest, RandomDim3ImageIsPinnedAtEveryThreadCount) {
  ExpectPinnedImage(RandomDataset(310, 5000, 3), 2048,
                    0x093243ddb9ea3563ull, 0xce9263b89339e2caull);
}

TEST(BulkLoadTest, TiedKeysImageIsPinnedAtEveryThreadCount) {
  ExpectPinnedImage(TiedDataset(311, 3000, 2), 2048,
                    0x1cd7f8f76b33b7b0ull, 0x0947a5f0c30bdaefull);
}

TEST(BulkLoadTest, LeafCapacityPlusOneImageIsPinnedAtEveryThreadCount) {
  const size_t cap = GtCapacities::ForPageSize(2048, 3).leaf;
  ExpectPinnedImage(RandomDataset(312, cap + 1, 3), 2048,
                    0xe3bb9e654b846e93ull, 0xbdada089cc541503ull);
}

TEST(BulkLoadTest, Dim1ImageIsPinnedAtEveryThreadCount) {
  ExpectPinnedImage(RandomDataset(313, 4000, 1), 2048,
                    0x1a5f251cb52deb8full, 0x2ee2de38ef3006a3ull);
}

TEST(BulkLoadTest, StructureInvariantsHold) {
  InMemoryPageDevice device(2048);
  ShardedBufferPool pool(&device, 1 << 14, /*num_shards=*/1);
  GaussTree tree(&pool, 3);
  tree.BulkLoad(RandomDataset(301, 3000, 3));
  tree.Validate();
  EXPECT_EQ(tree.size(), 3000u);
}

TEST(BulkLoadTest, QueriesMatchSequentialScan) {
  InMemoryPageDevice device(4096);
  ShardedBufferPool pool(&device, 1 << 14, /*num_shards=*/1);
  GaussTree tree(&pool, 4);
  PfvFile file(&pool, 4);
  const PfvDataset dataset = RandomDataset(302, 2500, 4);
  tree.BulkLoad(dataset);
  tree.Finalize();
  file.AppendAll(dataset);
  SeqScan scan(&file);

  Rng rng(303);
  for (int trial = 0; trial < 12; ++trial) {
    const Pfv q = RandomPfv(rng, 50000 + trial, 4);
    const MliqResult a = QueryMliq(tree, q, 5);
    const MliqResult b = scan.QueryMliq(q, 5);
    ASSERT_EQ(a.items.size(), b.items.size());
    for (size_t i = 0; i < a.items.size(); ++i) {
      EXPECT_NEAR(a.items[i].log_density, b.items[i].log_density, 1e-9);
    }
    const TiqResult ta = QueryTiq(tree, q, 0.25);
    const TiqResult tb = scan.QueryTiq(q, 0.25);
    std::set<uint64_t> ids_a, ids_b;
    for (const auto& item : ta.items) ids_a.insert(item.id);
    for (const auto& item : tb.items) ids_b.insert(item.id);
    EXPECT_EQ(ids_a, ids_b);
  }
}

TEST(BulkLoadTest, SameAnswersAsIncrementalBuild) {
  const PfvDataset dataset = RandomDataset(304, 1500, 3);
  Rng rng(305);
  const Pfv q = RandomPfv(rng, 77777, 3);

  InMemoryPageDevice device_a(2048);
  ShardedBufferPool pool_a(&device_a, 1 << 14, /*num_shards=*/1);
  GaussTree bulk(&pool_a, 3);
  bulk.BulkLoad(dataset);
  bulk.Finalize();

  InMemoryPageDevice device_b(2048);
  ShardedBufferPool pool_b(&device_b, 1 << 14, /*num_shards=*/1);
  GaussTree incremental(&pool_b, 3);
  incremental.BulkInsert(dataset);
  incremental.Finalize();

  const MliqResult a = QueryMliq(bulk, q, 7);
  const MliqResult b = QueryMliq(incremental, q, 7);
  ASSERT_EQ(a.items.size(), b.items.size());
  for (size_t i = 0; i < a.items.size(); ++i) {
    EXPECT_EQ(a.items[i].id, b.items[i].id);
  }
}

TEST(BulkLoadTest, FullerLeavesThanIncrementalBuild) {
  const PfvDataset dataset = RandomDataset(306, 4000, 3);

  InMemoryPageDevice device_a(2048);
  ShardedBufferPool pool_a(&device_a, 1 << 14, /*num_shards=*/1);
  GaussTree bulk(&pool_a, 3);
  bulk.BulkLoad(dataset);

  InMemoryPageDevice device_b(2048);
  ShardedBufferPool pool_b(&device_b, 1 << 14, /*num_shards=*/1);
  GaussTree incremental(&pool_b, 3);
  incremental.BulkInsert(dataset);

  const GaussTreeStats bulk_stats = bulk.ComputeStats();
  const GaussTreeStats incr_stats = incremental.ComputeStats();
  EXPECT_GT(bulk_stats.avg_leaf_fill, incr_stats.avg_leaf_fill);
  EXPECT_LE(bulk_stats.node_count, incr_stats.node_count);
}

TEST(BulkLoadTest, SmallInputsAndEdgeCases) {
  // Empty dataset: no-op.
  {
    InMemoryPageDevice device(2048);
    ShardedBufferPool pool(&device, 64, /*num_shards=*/1);
    GaussTree tree(&pool, 2);
    tree.BulkLoad(PfvDataset(2));
    tree.Validate();
    EXPECT_EQ(tree.size(), 0u);
  }
  // Single object.
  {
    InMemoryPageDevice device(2048);
    ShardedBufferPool pool(&device, 64, /*num_shards=*/1);
    GaussTree tree(&pool, 2);
    PfvDataset one(2);
    one.Add(Pfv(1, {0.5, 0.5}, {0.1, 0.1}));
    tree.BulkLoad(one);
    tree.Validate();
    const MliqResult r = QueryMliq(tree, Pfv(0, {0.5, 0.5}, {0.1, 0.1}), 1);
    ASSERT_EQ(r.items.size(), 1u);
    EXPECT_EQ(r.items[0].id, 1u);
  }
  // Exactly one full leaf.
  {
    InMemoryPageDevice device(2048);
    ShardedBufferPool pool(&device, 64, /*num_shards=*/1);
    GaussTree tree(&pool, 2);
    const size_t cap = tree.capacities().leaf;
    tree.BulkLoad(RandomDataset(307, cap, 2));
    tree.Validate();
    EXPECT_EQ(tree.ComputeStats().height, 1u);
  }
  // One more than a leaf: must split into a 2-level tree.
  {
    InMemoryPageDevice device(2048);
    ShardedBufferPool pool(&device, 64, /*num_shards=*/1);
    GaussTree tree(&pool, 2);
    const size_t cap = tree.capacities().leaf;
    tree.BulkLoad(RandomDataset(308, cap + 1, 2));
    tree.Validate();
    EXPECT_EQ(tree.ComputeStats().height, 2u);
  }
}

TEST(BulkLoadTest, PersistsAndReopens) {
  InMemoryPageDevice device(2048);
  ShardedBufferPool pool(&device, 1 << 14, /*num_shards=*/1);
  GaussTree tree(&pool, 3);
  tree.BulkLoad(RandomDataset(309, 2000, 3));
  tree.Finalize();
  auto reopened = GaussTree::Open(&pool, tree.meta_page());
  reopened->Validate();
  EXPECT_EQ(reopened->size(), 2000u);
}

TEST(BulkLoadTest, WorksWithClusteredData) {
  ClusteredDatasetConfig config;
  config.size = 5000;
  config.dim = 6;
  config.cluster_count = 15;
  const PfvDataset dataset = GenerateClusteredDataset(config);
  InMemoryPageDevice device(kDefaultPageSize);
  ShardedBufferPool pool(&device, 1 << 14, /*num_shards=*/1);
  GaussTree tree(&pool, 6);
  tree.BulkLoad(dataset);
  tree.Validate();
  EXPECT_EQ(tree.size(), 5000u);
}

}  // namespace
}  // namespace gauss
