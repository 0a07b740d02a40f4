#include <algorithm>
#include <cmath>
#include <cstring>
#include <set>

#include <gtest/gtest.h>

#include "api/upgrade.h"
#include "common/random.h"
#include "gausstree/gauss_tree.h"
#include "gausstree/node.h"
#include "legacy_image.h"
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

TEST(GtNodeTest, LeafSerializationRoundTrip) {
  Rng rng(51);
  GtNode node;
  node.kind = GtNodeKind::kLeaf;
  node.id = 17;
  for (uint64_t i = 0; i < 10; ++i) node.pfvs.push_back(RandomPfv(rng, i, 4));

  std::vector<uint8_t> page(kDefaultPageSize, 0);
  node.Serialize(page.data(), 4);
  const GtNode restored = GtNode::Deserialize(page.data(), 4, 17);

  EXPECT_EQ(restored.id, node.id);
  EXPECT_TRUE(restored.leaf());
  ASSERT_EQ(restored.pfvs.size(), node.pfvs.size());
  for (size_t i = 0; i < node.pfvs.size(); ++i) {
    EXPECT_EQ(restored.pfvs[i].id, node.pfvs[i].id);
    EXPECT_EQ(restored.pfvs[i].mu, node.pfvs[i].mu);
    EXPECT_EQ(restored.pfvs[i].sigma, node.pfvs[i].sigma);
  }
}

TEST(GtNodeTest, InnerSerializationRoundTrip) {
  Rng rng(52);
  GtNode node;
  node.kind = GtNodeKind::kInner;
  node.id = 3;
  for (uint32_t c = 0; c < 5; ++c) {
    GtChildEntry e;
    e.child = 100 + c;
    e.count = 1000 * (c + 1);
    e.bounds.resize(3);
    for (DimBounds& b : e.bounds) {
      b.mu_lo = rng.Uniform(-1, 0);
      b.mu_hi = rng.Uniform(0, 1);
      b.sigma_lo = rng.Uniform(0.01, 0.1);
      b.sigma_hi = rng.Uniform(0.1, 0.5);
    }
    node.children.push_back(std::move(e));
  }

  std::vector<uint8_t> page(kDefaultPageSize, 0);
  node.Serialize(page.data(), 3);
  const GtNode restored = GtNode::Deserialize(page.data(), 3, 3);

  EXPECT_FALSE(restored.leaf());
  ASSERT_EQ(restored.children.size(), 5u);
  for (size_t c = 0; c < 5; ++c) {
    EXPECT_EQ(restored.children[c].child, node.children[c].child);
    EXPECT_EQ(restored.children[c].count, node.children[c].count);
    for (size_t i = 0; i < 3; ++i) {
      EXPECT_EQ(restored.children[c].bounds[i].mu_lo,
                node.children[c].bounds[i].mu_lo);
      EXPECT_EQ(restored.children[c].bounds[i].sigma_hi,
                node.children[c].bounds[i].sigma_hi);
    }
  }
}

TEST(GtNodeTest, ComputeBoundsCoversAllContents) {
  Rng rng(53);
  GtNode node;
  node.kind = GtNodeKind::kLeaf;
  for (uint64_t i = 0; i < 30; ++i) node.pfvs.push_back(RandomPfv(rng, i, 3));
  const auto bounds = node.ComputeBounds(3);
  for (const Pfv& pfv : node.pfvs) {
    for (size_t i = 0; i < 3; ++i) {
      EXPECT_TRUE(bounds[i].Contains(pfv.mu[i], pfv.sigma[i]));
    }
  }
}

TEST(GtNodeTest, ChildEntryMergeAndInclude) {
  GtChildEntry a;
  a.count = 5;
  a.bounds = {{0.0, 1.0, 0.1, 0.2}};
  GtChildEntry b;
  b.count = 7;
  b.bounds = {{-1.0, 0.5, 0.05, 0.3}};
  a.Merge(b);
  EXPECT_EQ(a.count, 12u);
  EXPECT_EQ(a.bounds[0].mu_lo, -1.0);
  EXPECT_EQ(a.bounds[0].mu_hi, 1.0);
  EXPECT_EQ(a.bounds[0].sigma_lo, 0.05);
  EXPECT_EQ(a.bounds[0].sigma_hi, 0.3);

  const Pfv outlier(99, {5.0}, {1.0});
  a.Include(outlier);
  EXPECT_EQ(a.bounds[0].mu_hi, 5.0);
  EXPECT_EQ(a.bounds[0].sigma_hi, 1.0);
  EXPECT_TRUE(a.Contains(outlier));
}

TEST(GtCapacitiesTest, MatchRecordSizes) {
  // dim 10 on 8 KiB: leaf record 168 B -> 48; inner entry 328 B -> 24.
  const GtCapacities caps = GtCapacities::ForPageSize(8192, 10);
  EXPECT_EQ(caps.leaf, 48u);
  EXPECT_EQ(caps.inner, 24u);
  EXPECT_EQ(caps.leaf_min, 24u);
  EXPECT_EQ(caps.inner_min, 12u);
}

// The v3 header (8 bytes) costs no entry against the legacy one (5 bytes):
// records and page sizes are multiples of 8, so no multiple of a record
// size falls in the three bytes between them. So tree shapes, pages per
// query and bytes per object are the same in both formats.
TEST(GtCapacitiesTest, V3CapacityEqualsLegacyCapacityOnTheGrid) {
  for (size_t dim = 1; dim <= 32; ++dim) {
    for (uint32_t kib = 1; kib <= 64; ++kib) {
      const uint32_t page_size = kib * 1024;
      const size_t legacy_leaf = (page_size - 5) / (8 + 16 * dim);
      const size_t legacy_inner = (page_size - 5) / (8 + 32 * dim);
      if (legacy_leaf < 2 || legacy_inner < 2) continue;  // page too small
      const GtCapacities caps = GtCapacities::ForPageSize(page_size, dim);
      EXPECT_EQ(caps.leaf, legacy_leaf) << "dim " << dim << ", " << kib;
      EXPECT_EQ(caps.inner, legacy_inner) << "dim " << dim << ", " << kib;
    }
  }
}

GtNode RandomLeaf(Rng& rng, size_t n, size_t dim) {
  GtNode node;
  node.kind = GtNodeKind::kLeaf;
  for (uint64_t i = 0; i < n; ++i) node.pfvs.push_back(RandomPfv(rng, i, dim));
  return node;
}

GtNode RandomInner(Rng& rng, size_t n, size_t dim) {
  GtNode node;
  node.kind = GtNodeKind::kInner;
  for (uint32_t c = 0; c < n; ++c) {
    GtChildEntry e;
    e.child = 40 + c;
    e.count = 7 * (c + 1);
    for (size_t i = 0; i < dim; ++i) {
      e.bounds.push_back({rng.Uniform(-1, 0), rng.Uniform(0, 1),
                          rng.Uniform(0.01, 0.1), rng.Uniform(0.1, 0.5)});
    }
    node.children.push_back(std::move(e));
  }
  return node;
}

// A v3 page is the kernels' structure-of-arrays layout: Decode points the
// view into the page itself, with no copy.
TEST(GtNodeSoaTest, DecodeViewsV3PagesInPlace) {
  Rng rng(54);
  constexpr size_t kDim = 3;
  const GtNode leaf = RandomLeaf(rng, 11, kDim);
  std::vector<uint8_t> page(2048, 0);
  leaf.Serialize(page.data(), kDim);
  GtNodeSoa view;
  GtNodeSoa::Decode(page.data(), kDim, 5, &view);
  ASSERT_TRUE(view.leaf());
  EXPECT_EQ(view.n, 11u);
  EXPECT_EQ(view.stride, 11u);
  EXPECT_EQ(reinterpret_cast<const uint8_t*>(view.ids), page.data() + 8);
  EXPECT_EQ(reinterpret_cast<const uint8_t*>(view.mu()),
            page.data() + 8 + 11 * 8);
  for (size_t r = 0; r < 11; ++r) {
    EXPECT_EQ(view.ids[r], leaf.pfvs[r].id);
    for (size_t i = 0; i < kDim; ++i) {
      EXPECT_EQ(view.mu()[i * view.stride + r], leaf.pfvs[r].mu[i]);
      EXPECT_EQ(view.sigma()[i * view.stride + r], leaf.pfvs[r].sigma[i]);
    }
  }

  const GtNode inner = RandomInner(rng, 6, kDim);
  std::fill(page.begin(), page.end(), 0);
  inner.Serialize(page.data(), kDim);
  GtNodeSoa::Decode(page.data(), kDim, 6, &view);
  ASSERT_FALSE(view.leaf());
  for (size_t r = 0; r < 6; ++r) {
    EXPECT_EQ(view.children[r], inner.children[r].child);
    EXPECT_EQ(view.counts[r], inner.children[r].count);
    for (size_t i = 0; i < kDim; ++i) {
      const DimBounds& b = inner.children[r].bounds[i];
      EXPECT_EQ(view.mu_lo()[i * view.stride + r], b.mu_lo);
      EXPECT_EQ(view.mu_hi()[i * view.stride + r], b.mu_hi);
      EXPECT_EQ(view.sigma_lo()[i * view.stride + r], b.sigma_lo);
      EXPECT_EQ(view.sigma_hi()[i * view.stride + r], b.sigma_hi);
    }
  }
}

// A row page of a v2 tree (written by the test-local forger) decodes, in
// the upgrader, to the same node as the v3 page of that node; the serving
// path's Validate refuses it as an unknown tag, and a damaged one fails
// typed.
TEST(GtNodeSoaTest, LegacyPagesDecodeToTheSameNode) {
  Rng rng(55);
  constexpr size_t kDim = 4;
  for (const GtNode& node :
       {RandomLeaf(rng, 9, kDim), RandomInner(rng, 5, kDim)}) {
    std::vector<uint8_t> v3(2048, 0), legacy(2048, 0);
    node.Serialize(v3.data(), kDim);
    test::SerializeLegacy(node, kDim, legacy.data());
    EXPECT_STREQ(GtNodeSoa::Validate(legacy.data(), 2048, kDim, true),
                 "unknown node tag");
    GtNode from_legacy;
    ASSERT_EQ(DecodeRowPage(legacy.data(), 2048, kDim, 8, &from_legacy),
              nullptr);
    EXPECT_EQ(from_legacy.id, 8u);
    std::vector<uint8_t> a(2048, 0);
    from_legacy.Serialize(a.data(), kDim);
    EXPECT_EQ(a, v3);

    std::vector<uint8_t> bad = legacy;
    bad[0] = 2;
    EXPECT_STREQ(DecodeRowPage(bad.data(), 2048, kDim, 8, &from_legacy),
                 "unknown node tag");
    bad = legacy;
    const uint32_t huge = 1000;
    std::memcpy(bad.data() + 1, &huge, sizeof(huge));
    EXPECT_STREQ(DecodeRowPage(bad.data(), 2048, kDim, 8, &from_legacy),
                 "entry count exceeds the page");
  }
}

// Every single-bit flip inside a v3 page's used bytes fails validation;
// the unused tail is not covered. Malformed headers fail without a
// checksum.
TEST(GtNodeSoaTest, ValidateCatchesEveryBitFlipInTheUsedBytes) {
  Rng rng(56);
  constexpr size_t kDim = 2;
  constexpr uint32_t kPage = 1024;
  for (const GtNode& node :
       {RandomLeaf(rng, 7, kDim), RandomInner(rng, 4, kDim)}) {
    std::vector<uint8_t> page(kPage, 0);
    node.Serialize(page.data(), kDim);
    const size_t used = node.SerializedSize(kDim);
    ASSERT_EQ(GtNodeSoa::Validate(page.data(), kPage, kDim, true),
              nullptr);
    for (size_t bit = 0; bit < 8 * kPage; ++bit) {
      page[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
      const char* why =
          GtNodeSoa::Validate(page.data(), kPage, kDim, true);
      if (bit < 8 * used) {
        EXPECT_NE(why, nullptr) << "bit " << bit;
      } else {
        EXPECT_EQ(why, nullptr) << "bit " << bit;
      }
      page[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    }
    // Structural checks hold without the checksum.
    std::vector<uint8_t> bad = page;
    bad[0] = 9;
    EXPECT_STREQ(GtNodeSoa::Validate(bad.data(), kPage, kDim, false),
                 "unknown node tag");
    bad = page;
    bad[1] = 1;
    EXPECT_STREQ(GtNodeSoa::Validate(bad.data(), kPage, kDim, false),
                 "nonzero reserved header byte");
    bad = page;
    const uint16_t huge = 0xFFFF;
    std::memcpy(bad.data() + 2, &huge, sizeof(huge));
    EXPECT_STREQ(GtNodeSoa::Validate(bad.data(), kPage, kDim, false),
                 "entry count exceeds the page");
  }
}

class GaussTreeStructureTest : public ::testing::TestWithParam<size_t> {
 protected:
  GaussTreeStructureTest()
      : device_(2048), pool_(&device_, 1024, /*num_shards=*/1) {}

  InMemoryPageDevice device_;
  ShardedBufferPool pool_;
};

TEST_P(GaussTreeStructureTest, InvariantsHoldAfterRandomInserts) {
  const size_t dim = GetParam();
  Rng rng(54 + dim);
  GaussTree tree(&pool_, dim);
  for (uint64_t i = 0; i < 2000; ++i) {
    tree.Insert(RandomPfv(rng, i, dim));
    if (i % 500 == 499) tree.Validate();
  }
  tree.Validate();
  EXPECT_EQ(tree.size(), 2000u);

  const GaussTreeStats stats = tree.ComputeStats();
  EXPECT_EQ(stats.object_count, 2000u);
  EXPECT_GT(stats.height, 1u);
  EXPECT_GE(stats.avg_leaf_fill, 0.4);  // median splits keep nodes half full
}

INSTANTIATE_TEST_SUITE_P(Dims, GaussTreeStructureTest,
                         ::testing::Values(1, 2, 3, 5, 8));

TEST(GaussTreeTest, EmptyTreeIsValid) {
  InMemoryPageDevice device(2048);
  ShardedBufferPool pool(&device, 64, /*num_shards=*/1);
  GaussTree tree(&pool, 4);
  tree.Validate();
  EXPECT_EQ(tree.size(), 0u);
  const GaussTreeStats stats = tree.ComputeStats();
  EXPECT_EQ(stats.height, 1u);
  EXPECT_EQ(stats.node_count, 1u);
}

TEST(GaussTreeTest, SingleObject) {
  InMemoryPageDevice device(2048);
  ShardedBufferPool pool(&device, 64, /*num_shards=*/1);
  GaussTree tree(&pool, 2);
  tree.Insert(Pfv(42, {0.5, 0.5}, {0.1, 0.1}));
  tree.Validate();
  EXPECT_EQ(tree.size(), 1u);
}

TEST(GaussTreeTest, DuplicatePfvsAreAllStored) {
  InMemoryPageDevice device(1024);
  ShardedBufferPool pool(&device, 256, /*num_shards=*/1);
  GaussTree tree(&pool, 2);
  const Pfv pfv(7, {0.5, 0.5}, {0.1, 0.1});
  for (int i = 0; i < 300; ++i) tree.Insert(pfv);
  tree.Validate();
  EXPECT_EQ(tree.size(), 300u);
}

TEST(GaussTreeTest, FinalizeThenLoadPreservesStructure) {
  InMemoryPageDevice device(2048);
  ShardedBufferPool pool(&device, 1024, /*num_shards=*/1);
  GaussTree tree(&pool, 3);
  Rng rng(55);
  for (uint64_t i = 0; i < 1000; ++i) tree.Insert(RandomPfv(rng, i, 3));
  const GaussTreeStats before = tree.ComputeStats();
  tree.Finalize();
  const GaussTreeStats after = tree.ComputeStats();
  EXPECT_EQ(before.node_count, after.node_count);
  EXPECT_EQ(before.height, after.height);
  EXPECT_EQ(before.object_count, after.object_count);
  tree.Validate();
}

TEST(GaussTreeTest, DefinalizeAllowsFurtherInserts) {
  InMemoryPageDevice device(2048);
  ShardedBufferPool pool(&device, 1024, /*num_shards=*/1);
  GaussTree tree(&pool, 3);
  Rng rng(56);
  for (uint64_t i = 0; i < 500; ++i) tree.Insert(RandomPfv(rng, i, 3));
  tree.Finalize();
  tree.Definalize();
  for (uint64_t i = 500; i < 1000; ++i) tree.Insert(RandomPfv(rng, i, 3));
  tree.Validate();
  EXPECT_EQ(tree.size(), 1000u);
}

TEST(GaussTreeTest, AllIdsRetrievableAfterBuild) {
  InMemoryPageDevice device(2048);
  ShardedBufferPool pool(&device, 1024, /*num_shards=*/1);
  GaussTree tree(&pool, 2);
  Rng rng(57);
  std::set<uint64_t> inserted;
  for (uint64_t i = 0; i < 1500; ++i) {
    tree.Insert(RandomPfv(rng, i, 2));
    inserted.insert(i);
  }
  // Walk all leaves and collect ids.
  std::set<uint64_t> found;
  std::vector<PageId> stack{tree.root()};
  GtNode node;
  while (!stack.empty()) {
    const PageId id = stack.back();
    stack.pop_back();
    tree.store().Load(id, &node);
    if (node.leaf()) {
      for (const Pfv& pfv : node.pfvs) found.insert(pfv.id);
    } else {
      for (const GtChildEntry& e : node.children) stack.push_back(e.child);
    }
  }
  EXPECT_EQ(found, inserted);
}

TEST(GaussTreeSplitStrategyTest, AllStrategiesProduceValidTrees) {
  for (SplitStrategy strategy : {SplitStrategy::kHullIntegral,
                                 SplitStrategy::kVolume,
                                 SplitStrategy::kMuOnly}) {
    InMemoryPageDevice device(2048);
    ShardedBufferPool pool(&device, 1024, /*num_shards=*/1);
    GaussTreeOptions options;
    options.split_strategy = strategy;
    GaussTree tree(&pool, 3, options);
    Rng rng(58);
    for (uint64_t i = 0; i < 1200; ++i) tree.Insert(RandomPfv(rng, i, 3));
    tree.Validate();
    EXPECT_EQ(tree.size(), 1200u);
  }
}

TEST(GaussTreeTest, PaperDegreeConstraintsViaCapacities) {
  // The paper's leaf degree [M, 2M] maps to capacity-derived min fill of
  // one half; check the derived capacities drive honest splits: after many
  // inserts no leaf exceeds capacity and non-root nodes hold >= min fill
  // (Validate enforces this; this test just documents the relationship).
  InMemoryPageDevice device(4096);
  ShardedBufferPool pool(&device, 1024, /*num_shards=*/1);
  GaussTree tree(&pool, 4);
  EXPECT_EQ(tree.capacities().leaf_min * 2, tree.capacities().leaf);
  Rng rng(59);
  for (uint64_t i = 0; i < 3000; ++i) tree.Insert(RandomPfv(rng, i, 4));
  tree.Validate();
}

}  // namespace
}  // namespace gauss
