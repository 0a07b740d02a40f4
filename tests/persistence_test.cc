#include <algorithm>
#include <cstdio>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "api/gauss_db.h"
#include "api/serving_engine.h"
#include "common/random.h"
#include "gausstree/delta_tree.h"
#include "gausstree/gauss_tree.h"
#include "gausstree/mliq.h"
#include "gausstree/tiq.h"
#include "legacy_image.h"
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

TEST(GaussTreePersistenceTest, OpenReturnsIdenticalAnswers) {
  InMemoryPageDevice device(2048);
  ShardedBufferPool pool(&device, 1 << 14, /*num_shards=*/1);
  Rng rng(201);

  GaussTree original(&pool, 3);
  PfvFile file(&pool, 3);
  PfvDataset dataset(3);
  for (uint64_t i = 0; i < 1500; ++i) {
    const Pfv pfv = RandomPfv(rng, i, 3);
    dataset.Add(pfv);
    file.Append(pfv);
  }
  original.BulkLoad(dataset);
  original.Finalize();
  const PageId meta = original.meta_page();

  // Reattach through a *fresh* buffer pool over the same device — nothing
  // may survive except the pages themselves.
  ShardedBufferPool pool2(&device, 1 << 14, /*num_shards=*/1);
  auto reopened = GaussTree::Open(&pool2, meta);
  EXPECT_EQ(reopened->size(), original.size());
  EXPECT_EQ(reopened->dim(), original.dim());
  EXPECT_EQ(reopened->root(), original.root());
  reopened->Validate();

  for (int trial = 0; trial < 10; ++trial) {
    const Pfv q = RandomPfv(rng, 90000 + trial, 3);
    const MliqResult a = QueryMliq(original, q, 5);
    const MliqResult b = QueryMliq(*reopened, q, 5);
    ASSERT_EQ(a.items.size(), b.items.size());
    for (size_t i = 0; i < a.items.size(); ++i) {
      EXPECT_EQ(a.items[i].id, b.items[i].id);
      EXPECT_DOUBLE_EQ(a.items[i].log_density, b.items[i].log_density);
    }
  }
}

TEST(GaussTreePersistenceTest, OpenPreservesOptions) {
  InMemoryPageDevice device(2048);
  ShardedBufferPool pool(&device, 1 << 12, /*num_shards=*/1);
  GaussTreeOptions options;
  options.sigma_policy = SigmaPolicy::kAdditive;
  options.split_strategy = SplitStrategy::kVolume;
  options.integral_method = IntegralMethod::kSigmoidPoly5;
  GaussTree tree(&pool, 2, options);
  Rng rng(202);
  PfvDataset dataset(2);
  for (uint64_t i = 0; i < 100; ++i) dataset.Add(RandomPfv(rng, i, 2));
  tree.BulkLoad(dataset);
  tree.Finalize();

  auto reopened = GaussTree::Open(&pool, tree.meta_page());
  EXPECT_EQ(reopened->options().sigma_policy, SigmaPolicy::kAdditive);
  EXPECT_EQ(reopened->options().split_strategy, SplitStrategy::kVolume);
  EXPECT_EQ(reopened->options().integral_method,
            IntegralMethod::kSigmoidPoly5);
}

TEST(GaussTreePersistenceTest, ReopenedTreeAcceptsInserts) {
  InMemoryPageDevice device(2048);
  ShardedBufferPool pool(&device, 1 << 14, /*num_shards=*/1);
  Rng rng(203);
  PfvDataset dataset(2);
  for (uint64_t i = 0; i < 500; ++i) dataset.Add(RandomPfv(rng, i, 2));
  GaussTree tree(&pool, 2);
  tree.BulkLoad(dataset);
  tree.Finalize();
  const PageId meta = tree.meta_page();

  // A finalized tree takes more objects as a rebuild from its leaves plus
  // them, whose header replaces the tree's (what GaussDb::Finalize and a
  // live-ingest merge run).
  auto reopened = GaussTree::Open(&pool, meta);
  DeltaTree added(2, 500);
  for (uint64_t i = 500; i < 1000; ++i) {
    ASSERT_TRUE(added.Append(RandomPfv(rng, i, 2)));
  }
  const std::vector<std::vector<PageId>> retired = RebuildShards(
      {{reopened.get(), &device, meta,
        {{added.ids(), added.mu_planes(), added.plane_stride(),
          added.size()}}}},
      /*threads=*/1);
  reopened.reset();
  pool.Clear();  // the header page was rewritten past the pool
  device.Recycle(retired[0]);

  // Second reopen sees all 1000 objects.
  auto again = GaussTree::Open(&pool, meta);
  EXPECT_EQ(again->size(), 1000u);
  again->Validate();
}

TEST(GaussTreePersistenceTest, SurvivesProcessStyleReopenOnDisk) {
  const std::string path = ::testing::TempDir() + "/gauss_persist_test.db";
  PageId meta = kInvalidPageId;
  Rng rng(204);
  PfvDataset dataset(4);
  for (uint64_t i = 0; i < 800; ++i) dataset.Add(RandomPfv(rng, i, 4));
  const Pfv q = RandomPfv(rng, 99999, 4);
  std::vector<uint64_t> expected_ids;

  {
    FilePageDevice device(path, 2048, /*truncate=*/true);
    ShardedBufferPool pool(&device, 1 << 12, /*num_shards=*/1);
    GaussTree tree(&pool, 4);
    tree.BulkLoad(dataset);
    tree.Finalize();
    meta = tree.meta_page();
    for (const auto& item : QueryMliq(tree, q, 3).items) {
      expected_ids.push_back(item.id);
    }
    pool.FlushAll();
    device.Sync();
  }
  {
    // Simulated process restart: new device handle, new pool.
    FilePageDevice device(path, 2048, /*truncate=*/false);
    ShardedBufferPool pool(&device, 1 << 12, /*num_shards=*/1);
    auto tree = GaussTree::Open(&pool, meta);
    tree->Validate();
    EXPECT_EQ(tree->size(), 800u);
    std::vector<uint64_t> got_ids;
    for (const auto& item : QueryMliq(*tree, q, 3).items) {
      got_ids.push_back(item.id);
    }
    EXPECT_EQ(got_ids, expected_ids);
  }
  std::remove(path.c_str());
}

// Opening walks and checks every page on the device, past the pool: a
// fresh pool is still empty afterwards, on a device that lends its pages
// and on a file. Queries fault the pages in, check each once, and answer
// like the tree that was built; a corrupted page is still caught at open.
TEST(GaussTreePersistenceTest, OpenLeavesThePoolCold) {
  constexpr size_t kDim = 3;
  const std::string path = ::testing::TempDir() + "/gauss_open_cold.db";
  Rng rng(207);
  PfvDataset dataset(kDim);
  for (uint64_t i = 0; i < 1500; ++i) dataset.Add(RandomPfv(rng, i, kDim));
  InMemoryPageDevice memory(2048);
  FilePageDevice file(path, 2048, /*truncate=*/true);
  for (PageDevice* device : {static_cast<PageDevice*>(&memory),
                             static_cast<PageDevice*>(&file)}) {
    PageId meta = kInvalidPageId;
    std::vector<std::vector<uint64_t>> want;
    {
      ShardedBufferPool pool(device, 64, /*num_shards=*/1);
      GaussTree tree(&pool, kDim);
      tree.BulkLoad(dataset);
      tree.Finalize();
      meta = tree.meta_page();
      Rng probes(208);
      for (int trial = 0; trial < 5; ++trial) {
        std::vector<uint64_t> ids;
        const Pfv q = RandomPfv(probes, 90000 + trial, kDim);
        for (const auto& item : QueryMliq(tree, q, 5).items) {
          ids.push_back(item.id);
        }
        want.push_back(ids);
      }
    }
    ShardedBufferPool pool(device, 1 << 10);
    auto tree = GaussTree::Open(&pool, meta);
    EXPECT_EQ(pool.resident_pages(), 0u);
    EXPECT_EQ(pool.mapped_slots(), 0u);
    EXPECT_EQ(pool.stats().logical_reads, 0u);
    Rng probes(208);
    for (int trial = 0; trial < 5; ++trial) {
      std::vector<uint64_t> ids;
      const Pfv q = RandomPfv(probes, 90000 + trial, kDim);
      for (const auto& item : QueryMliq(*tree, q, 5).items) {
        ids.push_back(item.id);
      }
      EXPECT_EQ(ids, want[trial]);
    }
    EXPECT_GT(pool.resident_pages(), 0u);
    EXPECT_EQ(pool.stats().physical_reads, pool.resident_pages());

    // A leaf's bit flip fails the open, cold pool or not.
    const PageId leaf = tree->store().pages().back();
    std::vector<uint8_t> page(device->page_size());
    device->Read(leaf, page.data());
    page[20] ^= 0x01;
    device->Write(leaf, page.data());
    ShardedBufferPool again(device, 1 << 10);
    std::string error;
    EXPECT_EQ(GaussTree::TryOpen(&again, meta, &error), nullptr);
    EXPECT_NE(error.find("checksum mismatch"), std::string::npos) << error;
    EXPECT_EQ(again.resident_pages(), 0u);
  }
  std::remove(path.c_str());
}

TEST(GaussTreePersistenceTest, EmptyTreePersists) {
  InMemoryPageDevice device(2048);
  ShardedBufferPool pool(&device, 64, /*num_shards=*/1);
  GaussTree tree(&pool, 2);
  tree.Finalize();
  auto reopened = GaussTree::Open(&pool, tree.meta_page());
  EXPECT_EQ(reopened->size(), 0u);
  const Pfv q(1, {0.5, 0.5}, {0.1, 0.1});
  EXPECT_TRUE(QueryMliq(*reopened, q, 3).items.empty());
}

// Rewrites node `id` of a finalized tree on `device` with `edit` applied —
// through the serializer, so the page stays checksum-valid and only the
// store's structural checks can catch what the edit breaks.
template <typename Edit>
void RewriteNode(PageDevice* device, PageId id, size_t dim, Edit edit) {
  std::vector<uint8_t> page(device->page_size());
  device->Read(id, page.data());
  GtNode node = GtNode::Deserialize(page.data(), dim, id);
  edit(&node);
  std::fill(page.begin(), page.end(), 0);
  node.Serialize(page.data(), dim);
  device->Write(id, page.data());
}

// Checksum-valid pages that still describe no tree are typed open errors:
// a child id beyond the device, and a child pointing back at the root (the
// walk would reach a page twice). A damaged page found after opening fails
// the traversal that reaches it, never the process: QueryMliq/QueryTiq
// report corrupt results, and the page fails again on every fetch.
TEST(GaussTreePersistenceTest, DamagedNodePagesFailTyped) {
  constexpr size_t kDim = 3;
  Rng rng(205);
  InMemoryPageDevice device(2048);
  PageId meta = kInvalidPageId, root = kInvalidPageId;
  {
    ShardedBufferPool pool(&device, 64, /*num_shards=*/1);
    GaussTree tree(&pool, kDim);
    PfvDataset dataset(kDim);
    for (uint64_t i = 0; i < 1500; ++i) dataset.Add(RandomPfv(rng, i, kDim));
    tree.BulkLoad(dataset);
    tree.Finalize();
    meta = tree.meta_page();
    root = tree.root();
  }
  std::vector<uint8_t> pristine(device.page_size());
  device.Read(root, pristine.data());
  const auto try_open = [&](std::string* error) {
    ShardedBufferPool pool(&device, 64, /*num_shards=*/1);
    return GaussTree::TryOpen(&pool, meta, error) != nullptr;
  };

  std::string error;
  RewriteNode(&device, root, kDim,
              [](GtNode* node) { node->children[0].child = 1u << 30; });
  EXPECT_FALSE(try_open(&error));
  EXPECT_NE(error.find("child page id beyond the device"), std::string::npos)
      << error;

  device.Write(root, pristine.data());
  RewriteNode(&device, root, kDim,
              [&](GtNode* node) { node->children[1].child = root; });
  EXPECT_FALSE(try_open(&error));
  EXPECT_NE(error.find("reached twice"), std::string::npos) << error;

  // A v3 tree holds only v3 pages: a well-formed legacy page in it is as
  // foreign as garbage (a flipped tag bit must not select the unchecked
  // legacy reader).
  device.Write(root, pristine.data());
  {
    const PageId id =
        GtNode::Deserialize(pristine.data(), kDim, root).children[0].child;
    std::vector<uint8_t> page(device.page_size());
    device.Read(id, page.data());
    const GtNode node = GtNode::Deserialize(page.data(), kDim, id);
    std::vector<uint8_t> before = page;
    std::fill(page.begin(), page.end(), 0);
    test::SerializeLegacy(node, kDim, page.data());
    device.Write(id, page.data());
    EXPECT_FALSE(try_open(&error));
    EXPECT_NE(error.find("unknown node tag"), std::string::npos) << error;
    device.Write(id, before.data());
  }

  // Damage after opening: the pinned root is served from memory, so break a
  // page below it.
  device.Write(root, pristine.data());
  ShardedBufferPool pool(&device, 64, /*num_shards=*/1);
  auto tree = GaussTree::Open(&pool, meta);
  const PageId child = GtNode::Deserialize(pristine.data(), kDim, root)
                           .children[0]
                           .child;
  std::vector<uint8_t> page(device.page_size());
  device.Read(child, page.data());
  page[12] ^= 0x01;  // inside the body: a checksum mismatch
  device.Write(child, page.data());
  pool.Clear();
  const Pfv q = RandomPfv(rng, 99999, kDim);
  for (int attempt = 0; attempt < 2; ++attempt) {
    // A zero gap target refines until every page is expanded, the damaged
    // one included.
    const MliqResult mliq =
        QueryMliq(*tree, q, 3, {.denominator_target_gap = 0.0});
    EXPECT_TRUE(mliq.corrupt);
    const TiqResult tiq =
        QueryTiq(*tree, q, 0.5, {.denominator_target_gap = 0.0});
    EXPECT_TRUE(tiq.corrupt);
  }
  GtNodeSoa view;
  const char* why = nullptr;
  EXPECT_FALSE(tree->store().LoadSoa(child, &view, &why));
  EXPECT_STREQ(why, "checksum mismatch");
  EXPECT_FALSE(view.page);
  EXPECT_FALSE(pool.Fetch(child).verified());
}

// Builds an unsharded database file, overwrites its tree header (page 0)
// at `offset` with `value` — offsets of MetaPageLayout in gauss_tree.cc —
// and expects OpenFile to refuse it as kCorruptPage naming `why`, where the
// header's fields once went unchecked into the tree (an abort in
// GtCapacities, or an option served as the default and written back).
template <typename T>
void ExpectHeaderFieldFailsTyped(size_t offset, T value,
                                 const std::string& why) {
  const std::string path =
      ::testing::TempDir() + "/" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() + ".db";
  Rng rng(207);
  PfvDataset dataset(3);
  for (uint64_t i = 0; i < 300; ++i) dataset.Add(RandomPfv(rng, i, 3));
  GaussDb::CreateOnFile(path, 3).Build(dataset);
  std::FILE* f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  std::fseek(f, static_cast<long>(offset), SEEK_SET);
  std::fwrite(&value, sizeof(value), 1, f);
  std::fclose(f);
  const OpenResult result = GaussDb::OpenFile(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, OpenErrorCode::kCorruptPage);
  EXPECT_NE(result.error().message.find(why), std::string::npos)
      << result.error().message;
  std::remove(path.c_str());
}

TEST(GaussTreePersistenceTest, HeaderDimZeroFailsTyped) {
  ExpectHeaderFieldFailsTyped<uint32_t>(12, 0, "two entries");
}

TEST(GaussTreePersistenceTest, HeaderDimBeyondThePageFailsTyped) {
  ExpectHeaderFieldFailsTyped<uint32_t>(12, 1000, "two entries");
}

TEST(GaussTreePersistenceTest, HeaderSigmaPolicyOutOfRangeFailsTyped) {
  ExpectHeaderFieldFailsTyped<uint8_t>(28, 7, "sigma_policy");
}

TEST(GaussTreePersistenceTest, HeaderIntegralMethodOutOfRangeFailsTyped) {
  ExpectHeaderFieldFailsTyped<uint8_t>(29, 7, "integral_method");
}

TEST(GaussTreePersistenceTest, HeaderSplitStrategyOutOfRangeFailsTyped) {
  ExpectHeaderFieldFailsTyped<uint8_t>(30, 3, "split_strategy");
}

// The object count seeds every traversal's denominator bound: a header
// that disagrees with its leaves would answer wrongly, so it is refused.
TEST(GaussTreePersistenceTest, HeaderObjectCountMustMatchTheLeaves) {
  ExpectHeaderFieldFailsTyped<uint64_t>(16, 299, "the leaves hold 300");
}

// A traversal holds a page pin only while it scores that page: parked
// between refine rounds it pins nothing, so a small cache can evict every
// page it read. A checked frame carries the verified bit.
TEST(GaussTreePersistenceTest, ParkedTraversalPinsNothing) {
  constexpr size_t kDim = 3;
  Rng rng(206);
  InMemoryPageDevice device(2048);
  ShardedBufferPool pool(&device, 16, /*num_shards=*/1);
  GaussTree tree(&pool, kDim);
  PfvDataset dataset(kDim);
  for (uint64_t i = 0; i < 1500; ++i) dataset.Add(RandomPfv(rng, i, kDim));
  tree.BulkLoad(dataset);
  tree.Finalize();

  MliqTraversal traversal(tree, RandomPfv(rng, 99999, kDim), 3,
                          {.refine_probabilities = false});
  traversal.Run();
  ASSERT_FALSE(traversal.exhausted());
  ASSERT_GT(traversal.stats().nodes_visited, 1u);
  GtNodeSoa view;
  const PageId leaf = test::TreeNodePages(device, tree.meta_page()).back();
  ASSERT_TRUE(tree.store().LoadSoa(leaf, &view));
  EXPECT_TRUE(view.page.verified());
  view.page.Release();
  pool.Clear();
  EXPECT_EQ(pool.resident_pages(), 0u);
  traversal.RefineDenominator(0.0);  // resumes after the eviction
  EXPECT_TRUE(traversal.exhausted());
  EXPECT_FALSE(traversal.corrupt());
}

}  // namespace
}  // namespace gauss
