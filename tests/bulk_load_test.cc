#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <numeric>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "api/partitioner.h"
#include "bench/insertion_builder.h"
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

// Keys drawn from {-0.5, -0.0, +0.0, 0.5} and two sigma values: exact ties
// as in TiedDataset, and halves whose extreme is a zero of either sign.
// std::min/std::max keep the first of two equal arguments, so over a mix
// of -0.0 and +0.0 they are the one input whose result depends on the
// order the items are visited in.
PfvDataset SignedZeroDataset(uint64_t seed, size_t n, size_t dim) {
  constexpr double kMus[] = {-0.5, -0.0, 0.0, 0.5};
  constexpr double kSigmas[] = {0.05, 0.1};
  Rng rng(seed);
  PfvDataset dataset(dim);
  for (uint64_t i = 0; i < n; ++i) {
    std::vector<double> mu(dim), sigma(dim);
    for (double& m : mu) m = kMus[rng.UniformInt(4)];
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

struct TreeHashes {
  uint64_t image;
  uint64_t logical;
};

// Runs `load` on a fresh tree of `dim` over `device`, finalizes and
// validates it, and hashes its image and logical content.
template <typename Load>
TreeHashes LoadAndHashOn(PageDevice* device, size_t dim, size_t expected_size,
                         Load load) {
  ShardedBufferPool pool(device, 1 << 14, /*num_shards=*/1);
  GaussTree tree(&pool, dim);
  load(tree);
  tree.Finalize();
  tree.Validate();
  EXPECT_EQ(tree.size(), expected_size);
  return {ImageHash(*device), LogicalHash(tree)};
}

// LoadAndHashOn over a fresh device.
template <typename Load>
TreeHashes LoadAndHash(uint32_t page_size, size_t dim, size_t expected_size,
                       Load load) {
  InMemoryPageDevice device(page_size);
  return LoadAndHashOn(&device, dim, expected_size, load);
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
    const TreeHashes got =
        LoadAndHash(page_size, dataset.dim(), dataset.size(),
                    [&](GaussTree& tree) { tree.BulkLoad(dataset, threads); });
    EXPECT_EQ(got.image, expected_image) << "threads=" << threads;
    EXPECT_EQ(got.logical, expected_logical) << "threads=" << threads;
  }
}

// Loading dataset[positions] through the position list must build the very
// tree a load of a copied dataset of those objects (in list order) builds:
// equal image and logical hashes at 1, 2 and 4 threads.
void ExpectSubsetLoadEqualsCopy(const PfvDataset& dataset,
                                const std::vector<uint32_t>& positions,
                                uint32_t page_size) {
  PfvDataset copy(dataset.dim());
  for (const uint32_t i : positions) copy.Add(dataset[i]);
  for (size_t threads : {1, 2, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const TreeHashes subset = LoadAndHash(
        page_size, dataset.dim(), positions.size(),
        [&](GaussTree& tree) { tree.BulkLoad(dataset, positions, threads); });
    const TreeHashes copied =
        LoadAndHash(page_size, dataset.dim(), copy.size(),
                    [&](GaussTree& tree) { tree.BulkLoad(copy, threads); });
    EXPECT_EQ(subset.image, copied.image);
    EXPECT_EQ(subset.logical, copied.logical);
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

TEST(BulkLoadTest, SignedZeroTiesImageIsPinnedAtEveryThreadCount) {
  ExpectPinnedImage(SignedZeroDataset(316, 3000, 2), 2048,
                    0x48aa5a2dc5b8c4ccull, 0x773be8d4d758338bull);
}

// 80 candidate axes per split: more than one 64-bit word of split sides.
TEST(BulkLoadTest, Dim40ImageIsPinnedAtEveryThreadCount) {
  ExpectPinnedImage(RandomDataset(317, 2000, 40), kDefaultPageSize,
                    0xb0860745f1391885ull, 0x3ac8fa4d33884ffbull);
}

TEST(BulkLoadTest, SubsetLoadEqualsLoadOfCopiedSubset) {
  const PfvDataset random = RandomDataset(314, 5000, 3);
  {
    SCOPED_TRACE("empty list");
    ExpectSubsetLoadEqualsCopy(random, {}, 2048);
  }
  {
    SCOPED_TRACE("one object");
    ExpectSubsetLoadEqualsCopy(random, {4321}, 2048);
  }
  {
    SCOPED_TRACE("leaf capacity + 1");
    const size_t cap = GtCapacities::ForPageSize(2048, 3).leaf;
    std::vector<uint32_t> positions(cap + 1);
    std::iota(positions.begin(), positions.end(), uint32_t{100});
    ExpectSubsetLoadEqualsCopy(random, positions, 2048);
  }
  {
    SCOPED_TRACE("every other position");
    std::vector<uint32_t> positions;
    for (uint32_t i = 0; i < random.size(); i += 2) positions.push_back(i);
    ExpectSubsetLoadEqualsCopy(random, positions, 2048);
  }
  {
    // Lists of an 8-d gallery around 2^13 objects (1 MiB of leaf rows),
    // whose splits read the pfvs in place from the first one down to full
    // leaves.
    const PfvDataset wide = RandomDataset(318, 8232, 8);
    for (const size_t size : {size_t{8191}, size_t{8192}, size_t{8193}}) {
      SCOPED_TRACE("list of " + std::to_string(size));
      std::vector<uint32_t> positions(size);
      for (size_t i = 0; i < size; ++i) {
        positions[i] = static_cast<uint32_t>(wide.size() - 1 - i);
      }
      ExpectSubsetLoadEqualsCopy(wide, positions, kDefaultPageSize);
    }
  }
  const PfvDataset paper = GeneratePaperDataset2(20000).dataset;
  const std::vector<std::vector<uint32_t>> parts = SplitSpatial(
      paper, 4, GtCapacities::ForPageSize(kDefaultPageSize, paper.dim()).leaf);
  for (size_t s = 0; s < parts.size(); ++s) {
    SCOPED_TRACE("spatial part " + std::to_string(s));
    ExpectSubsetLoadEqualsCopy(paper, parts[s], kDefaultPageSize);
  }
}

// The leaf and inner page writers, reading values at stride 3 the way an
// SoA run lends them, against GtNode::Serialize (stride-1 pfvs, AoS child
// bounds) and ComputeBounds on one node: values with signed zeros and NaNs.
TEST(BulkLoadTest, PageWritersMatchGtNodeSerialize) {
  constexpr size_t kDim = 3;
  constexpr size_t kStride = 3;
  const double kValues[] = {-0.0, 0.0, 0.25, -1.5, std::nan(""), 2.0};
  Rng rng(330);
  const auto value = [&] { return kValues[rng.UniformInt(6)]; };
  for (const size_t n : {size_t{1}, size_t{2}, size_t{7}}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    GtNode leaf;
    leaf.kind = GtNodeKind::kLeaf;
    std::vector<double> planes(2 * kDim * n * kStride);
    std::vector<GtLeafObject> objects;
    for (size_t r = 0; r < n; ++r) {
      Pfv pfv;  // not Pfv::Valid(): its sigmas may be zero or NaN
      pfv.id = 1000 + r;
      pfv.mu.resize(kDim);
      pfv.sigma.resize(kDim);
      for (size_t i = 0; i < kDim; ++i) {
        pfv.mu[i] = planes[i * n * kStride + r] = value();
        pfv.sigma[i] = planes[(kDim + i) * n * kStride + r] = value();
      }
      leaf.pfvs.push_back(std::move(pfv));
      objects.push_back({1000 + r, planes.data() + r,
                         planes.data() + kDim * n * kStride + r,
                         n * kStride});
    }
    std::vector<uint8_t> want(2048, 0), got(2048, 0);
    leaf.Serialize(want.data(), kDim);
    std::vector<double> lo(2 * kDim), hi(2 * kDim);
    EXPECT_EQ(WriteLeafPage(objects.data(), n, kDim, got.data(), lo.data(),
                            hi.data()),
              leaf.SerializedSize(kDim));
    EXPECT_EQ(got, want);
    const std::vector<DimBounds> bounds = leaf.ComputeBounds(kDim);
    for (size_t i = 0; i < kDim; ++i) {
      const DimBounds b{lo[i], hi[i], lo[kDim + i], hi[kDim + i]};
      EXPECT_EQ(std::memcmp(&b, &bounds[i], sizeof(b)), 0) << "dim " << i;
    }

    GtNode inner;
    inner.kind = GtNodeKind::kInner;
    std::vector<std::vector<double>> edges;
    std::vector<GtChildRef> children;
    for (size_t r = 0; r < n; ++r) {
      GtChildEntry entry;
      entry.child = static_cast<PageId>(10 + r);
      entry.count = static_cast<uint32_t>(5 + r);
      entry.bounds.resize(kDim);
      std::vector<double> e(4 * kDim);
      for (size_t i = 0; i < kDim; ++i) {
        entry.bounds[i] = {value(), value(), value(), value()};
        e[i] = entry.bounds[i].mu_lo;
        e[kDim + i] = entry.bounds[i].sigma_lo;
        e[2 * kDim + i] = entry.bounds[i].mu_hi;
        e[3 * kDim + i] = entry.bounds[i].sigma_hi;
      }
      inner.children.push_back(std::move(entry));
      edges.push_back(std::move(e));
    }
    for (size_t r = 0; r < n; ++r) {
      children.push_back({inner.children[r].child, inner.children[r].count,
                          edges[r].data(), edges[r].data() + 2 * kDim});
    }
    std::fill(want.begin(), want.end(), 0);
    std::fill(got.begin(), got.end(), 0);
    inner.Serialize(want.data(), kDim);
    EXPECT_EQ(WriteInnerPage(children.data(), n, kDim, got.data(), lo.data(),
                             hi.data()),
              inner.SerializedSize(kDim));
    EXPECT_EQ(got, want);
    const std::vector<DimBounds> inner_bounds = inner.ComputeBounds(kDim);
    for (size_t i = 0; i < kDim; ++i) {
      const DimBounds b{lo[i], hi[i], lo[kDim + i], hi[kDim + i]};
      EXPECT_EQ(std::memcmp(&b, &inner_bounds[i], sizeof(b)), 0)
          << "dim " << i;
    }
  }
}

// Walks the tree from its root: every node page must be what
// GtNode::Serialize writes for the node decoded from it (header, checksum
// and zero tail included), and every parent entry must hold its child's
// SubtreeCount and ComputeBounds, bit for bit.
void ExpectPagesMatchSerialize(const GaussTree& tree,
                               const PageDevice& device) {
  const size_t dim = tree.dim();
  std::vector<uint8_t> page(device.page_size()), again(device.page_size());
  const auto node_at = [&](PageId id) {
    device.Read(id, page.data());
    return GtNode::Deserialize(page.data(), dim, id);
  };
  std::deque<PageId> queue{tree.root()};
  while (!queue.empty()) {
    const PageId id = queue.front();
    queue.pop_front();
    const GtNode node = node_at(id);
    std::fill(again.begin(), again.end(), 0);
    node.Serialize(again.data(), dim);
    EXPECT_EQ(page, again) << "page " << id;
    for (const GtChildEntry& e : node.children) {
      const GtNode child = node_at(e.child);
      EXPECT_EQ(e.count, child.SubtreeCount()) << "page " << e.child;
      const std::vector<DimBounds> bounds = child.ComputeBounds(dim);
      EXPECT_EQ(std::memcmp(e.bounds.data(), bounds.data(),
                            dim * sizeof(DimBounds)),
                0)
          << "page " << e.child;
      queue.push_back(e.child);
    }
  }
}

// The leaves written straight from the rows, for both row kinds: pfvs read
// through a position list, and SoA runs (the merge's input) with strides
// past their object counts. Both must write the pages GtNode::Serialize
// writes, and the same image.
TEST(BulkLoadTest, LeavesWrittenFromRowsMatchGtNodeSerialize) {
  constexpr uint32_t kPageSize = 2048;
  constexpr size_t kDim = 3;
  const size_t cap = GtCapacities::ForPageSize(kPageSize, kDim).leaf;
  for (const size_t n : {size_t{1}, cap, cap + 1, 100 * cap}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    const PfvDataset dataset = SignedZeroDataset(331, n, kDim);
    // Two runs: the first half at stride n, the rest at stride n + 5.
    const size_t first = n / 2;
    std::vector<uint64_t> ids(n);
    std::vector<double> planes_a(2 * kDim * n), planes_b(2 * kDim * (n + 5));
    std::vector<GaussTree::SoaRun> runs(2);
    runs[0] = {ids.data(), planes_a.data(), n, first};
    runs[1] = {ids.data() + first, planes_b.data(), n + 5, n - first};
    for (size_t r = 0; r < n; ++r) {
      const Pfv& pfv = dataset[r];
      ids[r] = pfv.id;
      GaussTree::SoaRun& run = runs[r < first ? 0 : 1];
      double* planes = const_cast<double*>(run.planes);
      const size_t j = r < first ? r : r - first;
      for (size_t i = 0; i < kDim; ++i) {
        planes[i * run.stride + j] = pfv.mu[i];
        planes[(kDim + i) * run.stride + j] = pfv.sigma[i];
      }
    }
    const auto load_and_check = [&](const auto& load) {
      InMemoryPageDevice device(kPageSize);
      ShardedBufferPool pool(&device, 1 << 14, /*num_shards=*/1);
      GaussTree tree(&pool, kDim);
      load(tree);
      EXPECT_EQ(tree.size(), n);
      ExpectPagesMatchSerialize(tree, device);
      tree.Finalize();
      return ImageHash(device);
    };
    for (size_t threads : {1, 4}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      const uint64_t from_pfvs = load_and_check(
          [&](GaussTree& tree) { tree.BulkLoad(dataset, threads); });
      const uint64_t from_runs = load_and_check(
          [&](GaussTree& tree) { tree.BulkLoad(runs, threads); });
      EXPECT_EQ(from_pfvs, from_runs);
    }
  }
}

// A load into pages reserved ahead (GaussTree::ReserveBulkLoad) writes the
// image of a load that allocates its own, for trees of every height.
TEST(BulkLoadTest, ReservedLoadEqualsUnreservedLoad) {
  const PfvDataset dataset = RandomDataset(332, 6000, 3);
  for (const size_t n : {size_t{0}, size_t{1}, size_t{700}, size_t{6000}}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    std::vector<uint32_t> positions(n);
    std::iota(positions.begin(), positions.end(), uint32_t{0});
    const TreeHashes want = LoadAndHash(
        2048, 3, n, [&](GaussTree& tree) { tree.BulkLoad(dataset, positions); });
    const TreeHashes got = LoadAndHash(2048, 3, n, [&](GaussTree& tree) {
      tree.ReserveBulkLoad(n);
      tree.BulkLoad(dataset, positions);
    });
    EXPECT_EQ(got.image, want.image);
    EXPECT_EQ(got.logical, want.logical);
  }
}

// Appends `pages` pages of random bytes to `device`: what a dead image looks
// like to the allocator.
void FillWithGarbage(PageDevice* device, size_t pages) {
  Rng rng(320);
  std::vector<uint8_t> garbage(device->page_size());
  for (size_t i = 0; i < pages; ++i) {
    for (uint8_t& byte : garbage) byte = static_cast<uint8_t>(rng.NextU64());
    device->Write(device->Allocate(), garbage.data());
  }
}

bool SameAnswer(const std::vector<IdentificationResult>& a,
                const std::vector<IdentificationResult>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].id != b[i].id ||
        std::memcmp(&a[i].log_density, &b[i].log_density, sizeof(double)) ||
        std::memcmp(&a[i].probability, &b[i].probability, sizeof(double)) ||
        std::memcmp(&a[i].probability_error, &b[i].probability_error,
                    sizeof(double))) {
      return false;
    }
  }
  return true;
}

// A tree bulk-loaded on recycled pages answers an MLIQ/TIQ batch byte for
// byte like the same load on a fresh device.
void ExpectSameAnswers(const GaussTree& got, const GaussTree& want,
                       size_t dim) {
  Rng rng(321);
  for (int trial = 0; trial < 8; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const Pfv q = RandomPfv(rng, 70000 + trial, dim);
    const MliqResult a = QueryMliq(got, q, 5);
    const MliqResult b = QueryMliq(want, q, 5);
    EXPECT_FALSE(a.corrupt);
    EXPECT_TRUE(SameAnswer(a.items, b.items));
    const TiqResult ta = QueryTiq(got, q, 0.1);
    const TiqResult tb = QueryTiq(want, q, 0.1);
    EXPECT_FALSE(ta.corrupt);
    EXPECT_TRUE(SameAnswer(ta.items, tb.items));
  }
}

// Allocate() zero-fills a recycled page and hands the lowest id out first,
// so a load onto a device whose first pages held garbage and were recycled
// lays out the very tree a fresh device gets: same logical content, same
// image (the load uses more pages than were recycled), same answers.
TEST(BulkLoadTest, LoadOnRecycledPagesEqualsLoadOnFreshDevice) {
  constexpr uint32_t kPageSize = 2048;
  constexpr size_t kRecycled = 300;
  const PfvDataset dataset = RandomDataset(319, 10000, 3);
  const auto load = [&](GaussTree& tree) { tree.BulkLoad(dataset, 2); };

  InMemoryPageDevice fresh(kPageSize);
  InMemoryPageDevice reused(kPageSize);
  FillWithGarbage(&reused, kRecycled);
  std::vector<PageId> ids(kRecycled);
  std::iota(ids.begin(), ids.end(), PageId{0});
  reused.Recycle(ids);
  const TreeHashes want = LoadAndHashOn(&fresh, 3, dataset.size(), load);
  const TreeHashes got = LoadAndHashOn(&reused, 3, dataset.size(), load);
  EXPECT_GT(reused.PageCount(), kRecycled);
  EXPECT_EQ(reused.FreePageCount(), 0u);
  EXPECT_EQ(got.logical, want.logical);
  EXPECT_EQ(got.image, want.image);

  ShardedBufferPool fresh_pool(&fresh, 1 << 14);
  ShardedBufferPool reused_pool(&reused, 1 << 14);
  ExpectSameAnswers(*GaussTree::Open(&reused_pool, 0),
                    *GaussTree::Open(&fresh_pool, 0), 3);
}

// Scattered recycled pages give the tree other page ids than a fresh
// device would. The traversals order nodes by their bounds alone, so the
// answers are still the same bytes.
TEST(BulkLoadTest, ScatteredRecycledPagesDoNotChangeAnswers) {
  constexpr uint32_t kPageSize = 2048;
  const PfvDataset dataset = RandomDataset(322, 10000, 3);
  InMemoryPageDevice fresh(kPageSize);
  InMemoryPageDevice reused(kPageSize);
  FillWithGarbage(&reused, 600);
  std::vector<PageId> odd;
  for (PageId id = 1; id < 600; id += 2) odd.push_back(id);
  reused.Recycle(odd);

  ShardedBufferPool fresh_pool(&fresh, 1 << 14, /*num_shards=*/1);
  ShardedBufferPool reused_pool(&reused, 1 << 14, /*num_shards=*/1);
  GaussTree want(&fresh_pool, 3);
  GaussTree got(&reused_pool, 3);
  want.BulkLoad(dataset, 2);
  got.BulkLoad(dataset, 2);
  want.Finalize();
  got.Finalize();
  got.Validate();
  EXPECT_EQ(got.meta_page(), 1u);
  EXPECT_EQ(reused.FreePageCount(), 0u);
  ExpectSameAnswers(got, want, 3);
}

// A position past the dataset is a checked abort, never a read beyond it.
TEST(BulkLoadDeathTest, PositionPastTheDatasetAborts) {
  const PfvDataset dataset = RandomDataset(315, 10, 2);
  EXPECT_DEATH(
      {
        InMemoryPageDevice device(2048);
        ShardedBufferPool pool(&device, 64, /*num_shards=*/1);
        GaussTree tree(&pool, 2);
        tree.BulkLoad(dataset, {3, 10}, /*threads=*/1);
      },
      "position past the end of the dataset");
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

// Every MLIQ and TIQ answer of `tree` matches the sequential scan of the
// same objects.
void ExpectScanAnswers(const GaussTree& tree, const PfvDataset& dataset,
                       uint64_t seed) {
  const size_t dim = dataset.dim();
  InMemoryPageDevice device(4096);
  ShardedBufferPool pool(&device, 1 << 14, /*num_shards=*/1);
  PfvFile file(&pool, dim);
  file.AppendAll(dataset);
  SeqScan scan(&file);
  Rng rng(seed);
  for (int trial = 0; trial < 6; ++trial) {
    const Pfv q = RandomPfv(rng, 60000 + trial, dim);
    const MliqResult a = QueryMliq(tree, q, 5);
    const MliqResult b = scan.QueryMliq(q, 5);
    ASSERT_EQ(a.items.size(), b.items.size());
    for (size_t i = 0; i < a.items.size(); ++i) {
      EXPECT_EQ(a.items[i].id, b.items[i].id);
      EXPECT_NEAR(a.items[i].log_density, b.items[i].log_density, 1e-9);
    }
    std::set<uint64_t> ids_a, ids_b;
    for (const auto& item : QueryTiq(tree, q, 0.25).items) {
      ids_a.insert(item.id);
    }
    for (const auto& item : scan.QueryTiq(q, 0.25).items) {
      ids_b.insert(item.id);
    }
    EXPECT_EQ(ids_a, ids_b);
  }
}

// The bulk load writes each node to the device as soon as it is complete:
// the still unfinalized tree reads its pages for validation and statistics,
// and Finalize() adds only the header.
TEST(BulkLoadTest, StreamsEveryNodeToTheDevice) {
  const PfvDataset dataset = RandomDataset(311, 2500, 3);
  for (size_t threads : {1, 2, 4}) {
    InMemoryPageDevice device(2048);
    ShardedBufferPool pool(&device, 1 << 14, /*num_shards=*/1);
    GaussTree tree(&pool, 3);
    tree.BulkLoad(dataset, threads);
    EXPECT_FALSE(tree.store().finalized());
    tree.Validate();
    const GaussTreeStats stats = tree.ComputeStats();
    EXPECT_EQ(stats.object_count, dataset.size());
    EXPECT_EQ(stats.node_count + 1, device.PageCount());  // + the meta page
    tree.Finalize();
    EXPECT_EQ(stats.node_count + 1, device.PageCount())
        << "threads=" << threads;
    tree.Validate();
    ExpectScanAnswers(tree, dataset, 312);
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
  InsertionBuild(&incremental, dataset);

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
  InsertionBuild(&incremental, dataset);

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
    tree.Finalize();  // queries read a finalized tree
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
