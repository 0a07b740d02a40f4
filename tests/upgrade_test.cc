// GaussDb::Upgrade (api/upgrade.h) and the open path's hostile-bytes
// contract.
//
// Every image format an earlier build wrote — forged here from a fresh
// build by tests/legacy_image.h — is refused by Open*() with kNeedsUpgrade
// and rewritten by Upgrade() into the current format: byte for byte the
// image a fresh build of the same gallery writes, answering the end-to-end
// benchmark's Figure 7 batch like the sequential-scan oracle and exactly as
// the image did before it was forged.
//
// A seeded mutation run then rewrites the three kinds of header the open
// path parses — the page-0 shard manifest, a tree header, the directory
// MANIFEST — and requires each mutated image to open and answer like the
// oracle, or to fail with a typed OpenError. An abort fails the test.

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/gauss_db.h"
#include "api/upgrade.h"
#include "data/paper_datasets.h"
#include "legacy_image.h"
#include "pfv/pfv_file.h"
#include "scan/seq_scan.h"
#include "service_test_util.h"
#include "storage/page_device.h"
#include "storage/sharded_buffer_pool.h"

namespace gauss {
namespace {

constexpr uint64_t kHashSeed = 0xfeedface;

// A gallery in id order, the Figure 7 batch over it (half 1-MLIQ at
// accuracy 1e-2, a quarter each lazy TIQ at 0.8 and 0.2) and the
// sequential-scan oracle.
class Figure7 {
 public:
  Figure7(size_t objects, size_t queries)
      : pool_(&device_, 1 << 12, /*num_shards=*/1) {
    const PaperDataset data = GeneratePaperDataset2(objects);
    std::vector<Pfv> sorted = data.dataset.objects();
    std::sort(sorted.begin(), sorted.end(),
              [](const Pfv& a, const Pfv& b) { return a.id < b.id; });
    dataset_ = PfvDataset(data.dataset.dim());
    for (const Pfv& pfv : sorted) dataset_.Add(pfv);
    file_ = std::make_unique<PfvFile>(&pool_, dataset_.dim());
    file_->AppendAll(dataset_);
    const std::vector<IdentificationQuery> workload =
        GeneratePaperWorkload(data, queries);
    for (size_t i = 0; i < workload.size(); ++i) {
      const Pfv& probe = workload[i].query;
      if (i % 4 < 2) {
        batch_.push_back(Query::Mliq(probe, 1).Accuracy(1e-2));
      } else {
        batch_.push_back(
            Query::Tiq(probe, i % 4 == 2 ? 0.8 : 0.2).ExactMembership(false));
      }
    }
  }

  const PfvDataset& dataset() const { return dataset_; }
  const std::vector<Query>& batch() const { return batch_; }

  // MLIQ: the scan's ids, probabilities within the certified error. Lazy
  // TIQ: every true answer, and extras only where the certified interval
  // reaches the threshold (paper Figure 5).
  void ExpectOracle(const BatchResult& result,
                    SigmaPolicy policy = SigmaPolicy::kConvolution) const {
    ASSERT_EQ(result.responses.size(), batch_.size());
    const SeqScan scan(file_.get(), policy);
    for (size_t i = 0; i < batch_.size(); ++i) {
      SCOPED_TRACE("query " + std::to_string(i));
      const Query& query = batch_[i];
      const QueryResponse& got = result.responses[i];
      ASSERT_EQ(got.status, QueryResponse::Status::kOk);
      if (query.kind() == QueryKind::kMliq) {
        const MliqResult want = scan.QueryMliq(query.pfv(), query.k());
        ASSERT_EQ(got.items.size(), want.items.size());
        for (size_t j = 0; j < got.items.size(); ++j) {
          EXPECT_EQ(got.items[j].id, want.items[j].id);
          EXPECT_NEAR(got.items[j].probability, want.items[j].probability,
                      got.items[j].probability_error + 1e-9);
        }
        continue;
      }
      const TiqResult want = scan.QueryTiq(query.pfv(), query.threshold());
      std::set<uint64_t> got_ids, want_ids;
      for (const IdentificationResult& item : got.items) {
        got_ids.insert(item.id);
      }
      for (const IdentificationResult& item : want.items) {
        want_ids.insert(item.id);
        EXPECT_TRUE(got_ids.count(item.id)) << "dismissed id " << item.id;
      }
      for (const IdentificationResult& item : got.items) {
        if (want_ids.count(item.id) == 0) {
          EXPECT_GE(item.probability + item.probability_error,
                    query.threshold() - 1e-12)
              << "id " << item.id;
        }
      }
    }
  }

 private:
  PfvDataset dataset_{1};
  std::vector<Query> batch_;
  InMemoryPageDevice device_;
  ShardedBufferPool pool_;
  std::unique_ptr<PfvFile> file_;
};

const Figure7& Gallery() {
  static const Figure7 gallery(/*objects=*/3000, /*queries=*/32);
  return gallery;
}

// A scratch path of its own for each test: ctest runs them in parallel.
std::string TempPath(const std::string& suffix) {
  return ::testing::TempDir() + "/" +
         ::testing::UnitTest::GetInstance()->current_test_info()->name() +
         suffix;
}

enum class Layout { kFile, kDirectory };

OpenResult Open(Layout layout, const std::string& path) {
  return layout == Layout::kFile ? GaussDb::OpenFile(path)
                                 : GaussDb::OpenDirectory(path);
}

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

// Every file of the image at `path`, by name.
std::map<std::string, std::string> ImageFiles(Layout layout,
                                              const std::string& path,
                                              size_t shards) {
  if (layout == Layout::kFile) return {{"", ReadBytes(path)}};
  std::map<std::string, std::string> files{
      {kDirManifestName, ReadBytes(path + "/" + kDirManifestName)}};
  for (size_t s = 0; s < shards; ++s) {
    files[ShardFileName(s)] = ReadBytes(path + "/" + ShardFileName(s));
  }
  return files;
}

void RemoveImage(Layout layout, const std::string& path, size_t shards) {
  if (layout == Layout::kFile) {
    std::remove(path.c_str());
    return;
  }
  std::remove((path + "/" + kDirManifestName).c_str());
  for (size_t s = 0; s < shards; ++s) {
    std::remove((path + "/" + ShardFileName(s)).c_str());
  }
  ::rmdir(path.c_str());
}

GaussDb Create(Layout layout, const std::string& path, size_t dim,
               size_t shards) {
  GaussDbOptions options;
  options.shards.num_shards = shards;
  return layout == Layout::kFile
             ? GaussDb::CreateOnFile(path, dim, options)
             : GaussDb::CreateOnDirectory(path, dim, options);
}

using Forge = std::function<void(const std::string& path)>;

// Builds the gallery over `shards` shards (0: unsharded), records its
// answers and files, and forges the image with `forge`. Then: Open refuses
// the forged image with kNeedsUpgrade, naming GaussDb::Upgrade; Upgrade
// writes the very files the build wrote; and the upgraded image answers
// exactly as before, like the oracle.

void ExpectUpgradeRestores(Layout layout, size_t shards, const Forge& forge) {
  const Figure7& gallery = Gallery();
  const std::string from = TempPath("_from");
  const std::string to = TempPath("_to");
  RemoveImage(layout, from, shards);
  RemoveImage(layout, to, shards);
  BatchResult before;
  {
    GaussDb db = Create(layout, from, gallery.dataset().dim(), shards);
    db.Build(gallery.dataset());
    before = db.Serve({.num_workers = 2}).ExecuteBatch(gallery.batch());
  }
  const auto built = ImageFiles(layout, from, shards);
  forge(from);
  ASSERT_NE(ImageFiles(layout, from, shards), built);

  const OpenResult refused = Open(layout, from);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.error().code, OpenErrorCode::kNeedsUpgrade);
  EXPECT_STREQ(OpenErrorCodeName(refused.error().code), "needs_upgrade");
  EXPECT_NE(refused.error().message.find("GaussDb::Upgrade"),
            std::string::npos)
      << refused.error().message;

  {
    OpenResult upgraded = GaussDb::Upgrade(from, to);
    ASSERT_TRUE(upgraded.ok()) << upgraded.error().message;
    EXPECT_EQ(upgraded->sharded(), shards > 0);
    EXPECT_EQ(upgraded->num_shards(), std::max<size_t>(shards, 1));
    EXPECT_EQ(upgraded->size(), gallery.dataset().size());
  }
  EXPECT_TRUE(ImageFiles(layout, to, shards) == built)
      << "the upgraded image differs from a fresh build's";

  OpenResult reopened = Open(layout, to);
  ASSERT_TRUE(reopened.ok()) << reopened.error().message;
  Session session = reopened->Serve({.num_workers = 2});
  const BatchResult after = session.ExecuteBatch(gallery.batch());
  ASSERT_EQ(after.responses.size(), before.responses.size());
  for (size_t i = 0; i < after.responses.size(); ++i) {
    SCOPED_TRACE("query " + std::to_string(i));
    test::ExpectItemsBytesEqual(after.responses[i].items,
                                before.responses[i].items);
  }
  gallery.ExpectOracle(after);
  RemoveImage(layout, from, shards);
  RemoveImage(layout, to, shards);
}

// Rewrites every tree of the single-file image at `path` with v2 row pages.
void ForgeRowPages(const std::string& path) {
  FilePageDevice device(path, kDefaultPageSize, /*truncate=*/false);
  test::ForgeLegacyImage(&device);
}

// The page-0 manifest of the single-file image at `path` as manifest
// `version` of an id-hash image. Manifest v1 predates the seed: those
// images routed with seed 0.
void ForgeManifest(const std::string& path, uint32_t version) {
  FilePageDevice device(path, kDefaultPageSize, /*truncate=*/false);
  test::ForgeHashManifest(&device, version, version == 1 ? 0 : kHashSeed);
}

TEST(UpgradeTest, UnshardedV2TreeIsRewrittenAsV3) {
  ExpectUpgradeRestores(Layout::kFile, 0, ForgeRowPages);
}

TEST(UpgradeTest, ManifestV1ImageIsRewrittenSpatially) {
  ExpectUpgradeRestores(Layout::kFile, 3, [](const std::string& path) {
    ForgeManifest(path, 1);
  });
}

TEST(UpgradeTest, ManifestV2ImageIsRewrittenSpatially) {
  ExpectUpgradeRestores(Layout::kFile, 3, [](const std::string& path) {
    ForgeManifest(path, 2);
  });
}

TEST(UpgradeTest, HashManifestV3ImageIsRewrittenSpatially) {
  ExpectUpgradeRestores(Layout::kFile, 3, [](const std::string& path) {
    ForgeManifest(path, 3);
  });
}

// Trees of either header version may sit under any manifest: v2 row pages
// under a v1 manifest here.
TEST(UpgradeTest, V2TreesUnderAManifestV1AreRewritten) {
  ExpectUpgradeRestores(Layout::kFile, 2, [](const std::string& path) {
    ForgeRowPages(path);
    ForgeManifest(path, 1);
  });
}

TEST(UpgradeTest, V2NodePagesUnderAV3ManifestAreRewritten) {
  ExpectUpgradeRestores(Layout::kFile, 4, ForgeRowPages);
}

// A hash directory image whose shard 1 also holds a v2 tree.
TEST(UpgradeTest, HashDirectoryImageIsRewrittenSpatially) {
  ExpectUpgradeRestores(Layout::kDirectory, 3, [](const std::string& dir) {
    test::ForgeHashDirectoryManifest(dir, kHashSeed);
    ForgeRowPages(dir + "/" + ShardFileName(1));
  });
}

// Upgrade never writes over its input, and a damaged input fails with the
// error an open would give, before anything is written.
TEST(UpgradeTest, RefusesItsOwnInputAndDamagedImages) {
  const Figure7& gallery = Gallery();
  const std::string from = TempPath(".db");
  const std::string to = TempPath("_to.db");
  std::remove(to.c_str());
  GaussDb::CreateOnFile(from, gallery.dataset().dim())
      .Build(gallery.dataset());
  PageId leaf = kInvalidPageId;
  {
    FilePageDevice device(from, kDefaultPageSize, /*truncate=*/false);
    leaf = test::TreeNodePages(device, 0).back();
  }
  ForgeRowPages(from);

  const OpenResult same = GaussDb::Upgrade(from, from);
  ASSERT_FALSE(same.ok());
  EXPECT_EQ(same.error().code, OpenErrorCode::kIoError);

  // A row page has no checksum, but a tag or count it cannot hold fails.
  {
    FilePageDevice device(from, kDefaultPageSize, /*truncate=*/false);
    std::vector<uint8_t> page(device.page_size());
    device.Read(leaf, page.data());
    page[0] = 7;
    device.Write(leaf, page.data());
  }
  const OpenResult damaged = GaussDb::Upgrade(from, to);
  ASSERT_FALSE(damaged.ok());
  EXPECT_EQ(damaged.error().code, OpenErrorCode::kCorruptPage);
  EXPECT_NE(damaged.error().message.find("unknown node tag"),
            std::string::npos)
      << damaged.error().message;
  struct stat unused;
  EXPECT_NE(::stat(to.c_str(), &unused), 0) << "Upgrade wrote " << to;

  const OpenResult missing =
      GaussDb::Upgrade(TempPath("_missing.db"), to);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.error().code, OpenErrorCode::kIoError);
  std::remove(from.c_str());
}

// ===================== seeded mutation of the open path =====================

// SplitMix64 (Steele, Lea and Flood, OOPSLA 2014): the mutation stream is
// a pure function of its seed.
class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t x = (state_ += 0x9e3779b97f4a7c15ull);
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
  }
  size_t Below(size_t n) { return static_cast<size_t>(Next() % n); }

 private:
  uint64_t state_;
};

// One mutation of a binary header: a bit flip, a random byte, or an
// aligned 32-bit field set to a boundary value.
void MutateBinary(std::string* bytes, SplitMix64* rng) {
  const size_t at = rng->Below(bytes->size());
  switch (rng->Below(3)) {
    case 0:
      (*bytes)[at] = static_cast<char>((*bytes)[at] ^ (1 << rng->Below(8)));
      return;
    case 1:
      (*bytes)[at] = static_cast<char>(rng->Next());
      return;
    default: {
      const size_t field = at & ~size_t{3};
      if (field + 4 > bytes->size()) return;
      uint32_t value = 0;
      std::memcpy(&value, bytes->data() + field, sizeof(value));
      const uint32_t boundary[] = {0,         1,          2,   3,   63, 64,
                                   65,        value - 1,  value + 1,
                                   0xFFFFFFFFu, 0x80000000u};
      value = boundary[rng->Below(std::size(boundary))];
      std::memcpy(bytes->data() + field, &value, sizeof(value));
    }
  }
}

// One mutation of the MANIFEST text: a bit flip, a character replaced by a
// digit, sign, space, newline or letter, a character dropped, or a line
// doubled.
void MutateText(std::string* text, SplitMix64* rng) {
  const size_t at = rng->Below(text->size());
  switch (rng->Below(4)) {
    case 0:
      (*text)[at] = static_cast<char>((*text)[at] ^ (1 << rng->Below(8)));
      return;
    case 1: {
      static const char kChars[] = "0123456789- \nax.";
      (*text)[at] = kChars[rng->Below(sizeof(kChars) - 1)];
      return;
    }
    case 2:
      text->erase(at, 1);
      return;
    default: {
      const size_t begin = text->rfind('\n', at) == std::string::npos
                               ? 0
                               : text->rfind('\n', at) + 1;
      const size_t end = text->find('\n', at);
      if (end == std::string::npos) return;
      text->insert(begin, text->substr(begin, end + 1 - begin));
    }
  }
}

struct MutationTally {
  size_t opened = 0;
  std::map<OpenErrorCode, size_t> refused;
};

// Applies `budget` seeded mutations to bytes [offset, offset + length) of
// `file` (the whole file when length is 0), restoring it after each, and
// checks every outcome: an image that opens serves the Figure 7 batch like
// the oracle under its own sigma policy.
MutationTally RunMutations(const std::string& file, size_t offset,
                           size_t length,
                           const std::function<OpenResult()>& open,
                           bool text, uint64_t seed, int budget) {
  const Figure7& gallery = Gallery();
  const std::string pristine = ReadBytes(file);
  if (length == 0) length = pristine.size();
  SplitMix64 rng(seed);
  MutationTally tally;
  for (int round = 0; round < budget; ++round) {
    std::string region = pristine.substr(offset, length);
    for (size_t n = 1 + rng.Below(2); n > 0; --n) {
      text ? MutateText(&region, &rng) : MutateBinary(&region, &rng);
    }
    std::string image = pristine;
    image.replace(offset, length, region);
    WriteBytes(file, image);
    SCOPED_TRACE("seed " + std::to_string(seed) + " round " +
                 std::to_string(round));
    OpenResult result = open();
    if (!result.ok()) {
      EXPECT_FALSE(result.error().message.empty());
      ++tally.refused[result.error().code];
      continue;
    }
    ++tally.opened;
    const SigmaPolicy policy = result->build_tree(0)->options().sigma_policy;
    Session session = result->Serve({.num_workers = 1});
    gallery.ExpectOracle(session.ExecuteBatch(gallery.batch()), policy);
    if (::testing::Test::HasFailure()) break;
  }
  WriteBytes(file, pristine);
  return tally;
}

void ReportTally(const MutationTally& tally) {
  std::printf("opened %zu", tally.opened);
  for (const auto& [code, count] : tally.refused) {
    std::printf(", %s %zu", OpenErrorCodeName(code), count);
  }
  std::printf("\n");
  EXPECT_GT(tally.opened, 0u);
  EXPECT_FALSE(tally.refused.empty());
}

constexpr int kBudget = 150;

TEST(OpenMutationTest, PageZeroManifest) {
  const std::string path = TempPath(".db");
  GaussDbOptions options;
  options.shards.num_shards = 3;
  GaussDb::CreateOnFile(path, Gallery().dataset().dim(), options)
      .Build(Gallery().dataset());
  // The header, the shard list and a few bytes of the zero tail.
  ReportTally(RunMutations(
      path, 0, 64, [&] { return GaussDb::OpenFile(path); }, /*text=*/false,
      /*seed=*/1, kBudget));
  std::remove(path.c_str());
}

TEST(OpenMutationTest, TreeHeader) {
  const std::string path = TempPath(".db");
  GaussDb::CreateOnFile(path, Gallery().dataset().dim())
      .Build(Gallery().dataset());
  ReportTally(RunMutations(
      path, 0, 48, [&] { return GaussDb::OpenFile(path); }, /*text=*/false,
      /*seed=*/2, kBudget));
  std::remove(path.c_str());
}

TEST(OpenMutationTest, DirectoryManifest) {
  const std::string dir = TempPath("_dir");
  GaussDbOptions options;
  options.shards.num_shards = 2;
  GaussDb::CreateOnDirectory(dir, Gallery().dataset().dim(), options)
      .Build(Gallery().dataset());
  ReportTally(RunMutations(
      dir + "/" + kDirManifestName, 0, 0,
      [&] { return GaussDb::OpenDirectory(dir); }, /*text=*/true,
      /*seed=*/3, kBudget));
  RemoveImage(Layout::kDirectory, dir, 2);
}

}  // namespace
}  // namespace gauss
