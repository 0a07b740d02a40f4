// GaussDb façade tests: the three-call public API (Create/Build/Serve) must
// produce exactly the answers of the hand-wired low-level stack, survive the
// file round trip (CreateOnFile -> OpenFile), support several independent
// serving sessions, and enforce its lifecycle rules.

#include <sched.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "api/gauss_db.h"
#include "common/random.h"
#include "data/generators.h"
#include "data/paper_datasets.h"
#include "data/workload.h"
#include "gausstree/mliq.h"
#include "gausstree/tiq.h"
#include "service_test_util.h"

namespace gauss {
namespace {

constexpr size_t kDim = 4;

PfvDataset MakeDataset(size_t size, uint64_t seed = 31) {
  ClusteredDatasetConfig config;
  config.size = size;
  config.dim = kDim;
  config.cluster_count = 12;
  config.seed = seed;
  return GenerateClusteredDataset(config);
}

std::vector<Query> MakeBatch(const PfvDataset& dataset, size_t count) {
  WorkloadConfig wconfig;
  wconfig.query_count = count;
  wconfig.seed = 17;
  return test::MakeMixedBatch(GenerateWorkload(dataset, wconfig));
}

using test::ExpectItemsBytesEqual;

TEST(GaussDbTest, BuildServeAnswersMatchLowLevelApi) {
  const PfvDataset dataset = MakeDataset(3000);
  GaussDb db = GaussDb::CreateInMemory(kDim);
  db.Build(dataset);
  EXPECT_EQ(db.size(), dataset.size());
  EXPECT_TRUE(db.finalized());

  Session session = db.Serve({.num_workers = 4});
  session.tree().Validate();

  const std::vector<Query> batch = MakeBatch(dataset, 30);
  const BatchResult result = session.ExecuteBatch(batch);

  ASSERT_EQ(result.responses.size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    // Ground truth through the documented low-level API on the same tree.
    const Query& query = batch[i];
    std::vector<IdentificationResult> expected;
    if (query.kind() == QueryKind::kMliq) {
      expected = QueryMliq(session.tree(), query.pfv(), query.k(),
                           query.mliq_options())
                     .items;
    } else {
      expected = QueryTiq(session.tree(), query.pfv(), query.threshold(),
                          query.tiq_options())
                     .items;
    }
    EXPECT_EQ(result.responses[i].status, QueryResponse::Status::kOk);
    ExpectItemsBytesEqual(result.responses[i].items, expected);
  }
}

TEST(GaussDbTest, InsertPathServeFinalizesImplicitly) {
  const PfvDataset dataset = MakeDataset(500);
  GaussDb db = GaussDb::CreateInMemory(kDim);
  for (size_t i = 0; i < dataset.size(); ++i) db.Insert(dataset[i]);
  EXPECT_EQ(db.size(), dataset.size());
  EXPECT_FALSE(db.finalized());

  Session session = db.Serve({.num_workers = 2});  // finalizes on the way
  EXPECT_TRUE(db.finalized());
  EXPECT_EQ(session.tree().size(), dataset.size());

  const auto future =
      session.Submit(Query::Mliq(dataset[0], 1)).wait_for(std::chrono::seconds(30));
  EXPECT_EQ(future, std::future_status::ready);
}

TEST(GaussDbTest, FileRoundTripReturnsByteIdenticalAnswers) {
  const std::string path = ::testing::TempDir() + "/gauss_db_api_test.db";
  const PfvDataset dataset = MakeDataset(1200);
  const std::vector<Query> batch = MakeBatch(dataset, 20);

  BatchResult before;
  {
    GaussDb db = GaussDb::CreateOnFile(path, kDim);
    db.Build(dataset);
    Session session = db.Serve({.num_workers = 2});
    before = session.ExecuteBatch(batch);
  }  // db + session gone: only the file survives

  {
    GaussDb reopened = GaussDb::OpenFile(path).value();
    EXPECT_EQ(reopened.dim(), kDim);
    EXPECT_EQ(reopened.size(), dataset.size());
    Session session = reopened.Serve({.num_workers = 2});
    const BatchResult after = session.ExecuteBatch(batch);
    ASSERT_EQ(after.responses.size(), before.responses.size());
    for (size_t i = 0; i < after.responses.size(); ++i) {
      ExpectItemsBytesEqual(after.responses[i].items, before.responses[i].items);
    }
  }
  std::remove(path.c_str());
}

TEST(GaussDbTest, OpenFileWithMismatchedPageSizeReturnsTypedError) {
  const std::string path = ::testing::TempDir() + "/gauss_db_pagesize_test.db";
  {
    GaussDbOptions options;
    options.page_size = 4096;
    GaussDb db = GaussDb::CreateOnFile(path, kDim, options);
    db.Build(MakeDataset(200));
  }
  // Reopening with a different page size would map every PageId to the
  // wrong byte offset; the persistent header catches it — as a typed error
  // the caller can report, not an abort (2048 divides every 4096-page file,
  // so the open reaches the header check deterministically).
  GaussDbOptions reopen;
  reopen.page_size = 2048;
  const OpenResult result = GaussDb::OpenFile(path, reopen);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, OpenErrorCode::kPageSizeMismatch);
  EXPECT_NE(result.error().message.find("page size mismatch"),
            std::string::npos);
  std::remove(path.c_str());
}

TEST(GaussDbTest, OpenFileOnMissingEmptyOrForeignFilesReturnsTypedErrors) {
  const std::string missing = ::testing::TempDir() + "/gauss_db_no_such.db";
  std::remove(missing.c_str());
  const OpenResult not_there = GaussDb::OpenFile(missing);
  ASSERT_FALSE(not_there.ok());
  EXPECT_EQ(not_there.error().code, OpenErrorCode::kIoError);

  // Empty file: opens as a zero-page device — no header to trust.
  const std::string empty = ::testing::TempDir() + "/gauss_db_empty.db";
  { std::fclose(std::fopen(empty.c_str(), "wb")); }
  const OpenResult no_pages = GaussDb::OpenFile(empty);
  ASSERT_FALSE(no_pages.ok());
  EXPECT_EQ(no_pages.error().code, OpenErrorCode::kNotAGaussDb);
  std::remove(empty.c_str());

  // A page-aligned file of garbage: right shape, no recognizable header.
  const std::string foreign = ::testing::TempDir() + "/gauss_db_foreign.db";
  {
    std::FILE* f = std::fopen(foreign.c_str(), "wb");
    const std::vector<uint8_t> junk(kDefaultPageSize, 0x5a);
    std::fwrite(junk.data(), 1, junk.size(), f);
    std::fclose(f);
  }
  const OpenResult junk_file = GaussDb::OpenFile(foreign);
  ASSERT_FALSE(junk_file.ok());
  EXPECT_EQ(junk_file.error().code, OpenErrorCode::kNotAGaussDb);
  std::remove(foreign.c_str());

  // Truncated mid-page (not a page-size multiple): rejected at the device.
  const std::string truncated = ::testing::TempDir() + "/gauss_db_trunc.db";
  {
    std::FILE* f = std::fopen(truncated.c_str(), "wb");
    const std::vector<uint8_t> junk(kDefaultPageSize + 100, 0);
    std::fwrite(junk.data(), 1, junk.size(), f);
    std::fclose(f);
  }
  const OpenResult short_file = GaussDb::OpenFile(truncated);
  ASSERT_FALSE(short_file.ok());
  EXPECT_EQ(short_file.error().code, OpenErrorCode::kIoError);
  std::remove(truncated.c_str());
}

TEST(GaussDbTest, OpenFileOnCorruptShardManifestReturnsTypedError) {
  const std::string path = ::testing::TempDir() + "/gauss_db_badmanifest.db";
  {
    GaussDbOptions options;
    options.shards.num_shards = 3;
    GaussDb db = GaussDb::CreateOnFile(path, kDim, options);
    db.Build(MakeDataset(300));
  }
  // Corrupt the manifest's shard-count field in place (offset 20: after
  // magic + version + page_size + dim). 64k shards is outside the
  // representable range, so the typed corrupt-manifest path fires.
  {
    std::FILE* f = std::fopen(path.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    const uint32_t bogus_shards = 65535;
    std::fseek(f, 20, SEEK_SET);
    std::fwrite(&bogus_shards, sizeof(bogus_shards), 1, f);
    std::fclose(f);
  }
  const OpenResult result = GaussDb::OpenFile(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, OpenErrorCode::kCorruptManifest);

  // An unknown partition kind (offset 32, after the hash seed) is corrupt
  // too.
  {
    std::FILE* f = std::fopen(path.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    const uint32_t restored_shards = 3;
    std::fseek(f, 20, SEEK_SET);
    std::fwrite(&restored_shards, sizeof(restored_shards), 1, f);
    const uint32_t bogus_kind = 7;
    std::fseek(f, 32, SEEK_SET);
    std::fwrite(&bogus_kind, sizeof(bogus_kind), 1, f);
    std::fclose(f);
  }
  const OpenResult unknown_kind = GaussDb::OpenFile(path);
  ASSERT_FALSE(unknown_kind.ok());
  EXPECT_EQ(unknown_kind.error().code, OpenErrorCode::kCorruptManifest);

  // And a bumped manifest version is a version mismatch, not corruption.
  {
    std::FILE* f = std::fopen(path.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    const uint32_t restored_shards = 3;
    std::fseek(f, 20, SEEK_SET);
    std::fwrite(&restored_shards, sizeof(restored_shards), 1, f);
    const uint32_t future_version = 99;
    std::fseek(f, 8, SEEK_SET);  // version follows the 8-byte magic
    std::fwrite(&future_version, sizeof(future_version), 1, f);
    std::fclose(f);
  }
  const OpenResult versioned = GaussDb::OpenFile(path);
  ASSERT_FALSE(versioned.ok());
  EXPECT_EQ(versioned.error().code, OpenErrorCode::kVersionMismatch);
  std::remove(path.c_str());
}

TEST(GaussDbDeathTest, OpenResultValueOnErrorAbortsWithTheMessage) {
  const std::string missing = ::testing::TempDir() + "/gauss_db_value_abort.db";
  std::remove(missing.c_str());
  // Callers that cannot degrade keep the old fail-loudly contract through
  // value().
  EXPECT_DEATH(GaussDb::OpenFile(missing).value(), "gauss_db_value_abort");
}

TEST(GaussDbTest, OpenFileReadsBackTreeOptions) {
  const std::string path = ::testing::TempDir() + "/gauss_db_options_test.db";
  const PfvDataset dataset = MakeDataset(300);
  {
    GaussDbOptions options;
    options.tree.sigma_policy = SigmaPolicy::kAdditive;
    options.tree.split_strategy = SplitStrategy::kVolume;
    GaussDb db = GaussDb::CreateOnFile(path, kDim, options);
    db.Build(dataset);
  }
  {
    GaussDb reopened = GaussDb::OpenFile(path).value();
    ASSERT_NE(reopened.build_tree(), nullptr);
    EXPECT_EQ(reopened.build_tree()->options().sigma_policy,
              SigmaPolicy::kAdditive);
    EXPECT_EQ(reopened.build_tree()->options().split_strategy,
              SplitStrategy::kVolume);
  }
  std::remove(path.c_str());
}

TEST(GaussDbTest, ReopenedFileAcceptsMoreInserts) {
  const std::string path = ::testing::TempDir() + "/gauss_db_grow_test.db";
  const PfvDataset first = MakeDataset(400, /*seed=*/41);
  const PfvDataset second = MakeDataset(200, /*seed=*/43);
  {
    GaussDb db = GaussDb::CreateOnFile(path, kDim);
    db.Build(first);
  }
  {
    GaussDb db = GaussDb::OpenFile(path).value();
    for (size_t i = 0; i < second.size(); ++i) db.Insert(second[i]);
    Session session = db.Serve({.num_workers = 1});
    EXPECT_EQ(session.tree().size(), first.size() + second.size());
    session.tree().Validate();
  }
  std::remove(path.c_str());
}

TEST(GaussDbTest, MultipleSessionsServeIndependentlyAndIdentically) {
  const PfvDataset dataset = MakeDataset(2000);
  GaussDb db = GaussDb::CreateInMemory(kDim);
  db.Build(dataset);

  Session big = db.Serve({.num_workers = 3, .cache_pages = 1u << 12});
  Session tiny = db.Serve({.num_workers = 2, .cache_pages = 64});

  const std::vector<Query> batch = MakeBatch(dataset, 24);
  const BatchResult a = big.ExecuteBatch(batch);
  const BatchResult b = tiny.ExecuteBatch(batch);
  ASSERT_EQ(a.responses.size(), b.responses.size());
  for (size_t i = 0; i < a.responses.size(); ++i) {
    // Different cache budgets, same pages: answers cannot differ.
    ExpectItemsBytesEqual(a.responses[i].items, b.responses[i].items);
  }
  // The caches really are independent stacks.
  EXPECT_GT(big.cache().stats().logical_reads, 0u);
  EXPECT_GT(tiny.cache().stats().logical_reads, 0u);
}

// Replacing a session releases its share of the serving engine while its
// queries are still in flight. A static engine then tears down in
// dependency order — the coordinator (sharded) drains before the backends
// and shard services it scatters through, each service joins its workers
// before their tree and cache go — so every in-flight query still completes
// with its answer. A live-ingest database keeps its one engine, and the new
// session shares it.
TEST(GaussDbTest, SessionMoveAssignmentReplacesServingStack) {
  const PfvDataset dataset = MakeDataset(800);
  const std::vector<Query> batch = MakeBatch(dataset, 10);
  struct Input {
    const char* name;
    size_t shards;
    bool ingest;
  };
  for (const Input& input : {Input{"single tree", 0, false},
                             Input{"3 shards", 3, false},
                             Input{"live ingest", 0, true}}) {
    SCOPED_TRACE(input.name);
    GaussDbOptions options;
    options.shards.num_shards = input.shards;
    options.ingest.enabled = input.ingest;
    GaussDb db = GaussDb::CreateInMemory(kDim, options);
    db.Build(dataset);

    Session session = db.Serve({.num_workers = 2});
    const BatchResult first = session.ExecuteBatch(batch);
    std::vector<std::future<QueryResponse>> in_flight;
    for (size_t round = 0; round < 4; ++round) {
      for (const Query& query : batch) {
        in_flight.push_back(session.Submit(query));
      }
    }

    session = db.Serve({.num_workers = 1, .cache_pages = 128});
    for (size_t i = 0; i < in_flight.size(); ++i) {
      const QueryResponse response = in_flight[i].get();
      ASSERT_EQ(response.status, QueryResponse::Status::kOk);
      ExpectItemsBytesEqual(response.items,
                            first.responses[i % batch.size()].items);
    }
    const BatchResult second = session.ExecuteBatch(batch);
    ASSERT_EQ(second.responses.size(), first.responses.size());
    for (size_t i = 0; i < second.responses.size(); ++i) {
      ExpectItemsBytesEqual(second.responses[i].items,
                            first.responses[i].items);
    }
  }
}

TEST(GaussDbTest, StreamingAndBatchSharePipelineThroughFacade) {
  const PfvDataset dataset = MakeDataset(1000);
  GaussDb db = GaussDb::CreateInMemory(kDim);
  db.Build(dataset);
  Session session = db.Serve({.num_workers = 2});

  const std::vector<Query> batch = MakeBatch(dataset, 16);
  std::vector<std::future<QueryResponse>> futures;
  for (const Query& query : batch) futures.push_back(session.Submit(query));
  const BatchResult batched = session.ExecuteBatch(batch);

  for (size_t i = 0; i < batch.size(); ++i) {
    ExpectItemsBytesEqual(futures[i].get().items, batched.responses[i].items);
  }
}

// FNV-1a over every page of every device of `db`, in shard order.
uint64_t DatabaseImageHash(GaussDb& db) {
  uint64_t hash = 0xcbf29ce484222325ull;
  const size_t devices = db.per_shard_devices() ? db.num_shards() : 1;
  for (size_t s = 0; s < devices; ++s) {
    const PageDevice& device = db.device(s);
    std::vector<uint8_t> page(device.page_size());
    for (PageId id = 0; id < device.PageCount(); ++id) {
      device.Read(id, page.data());
      for (const uint8_t byte : page) {
        hash ^= byte;
        hash *= 0x100000001b3ull;
      }
    }
  }
  return hash;
}

// A sharded Build loads its shards side by side, on pages each tree
// reserved in shard order. Every layout must still hold the image of loads
// run one after another, at every CPU budget: the constants were recorded
// with sequential shard loads, and each image is built once with the
// process's CPUs and once confined to one.
TEST(ConcurrentBuildTest, ShardedImagesMatchSequentialLoads) {
  const PfvDataset dataset = GeneratePaperDataset2(8000).dataset;
  const std::string dir = ::testing::TempDir() + "/gauss_concurrent_build." +
                          std::to_string(::getpid());
  const auto image = [&](const std::string& layout, size_t shards) {
    GaussDbOptions options;
    options.shards.num_shards = shards;
    GaussDb db = layout == "memory"
                     ? GaussDb::CreateInMemory(dataset.dim(), options)
                 : layout == "file"
                     ? GaussDb::CreateOnFile(dir + ".db", dataset.dim(),
                                             options)
                     : GaussDb::CreateOnDirectory(dir, dataset.dim(),
                                                  options);
    db.Build(dataset);
    return DatabaseImageHash(db);
  };
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  ASSERT_EQ(sched_getaffinity(0, sizeof(allowed), &allowed), 0);
  int first = 0;
  while (!CPU_ISSET(first, &allowed)) ++first;

  struct Case {
    const char* layout;
    size_t shards;
    uint64_t expected;
  };
  // One file holds the same pages as memory; a directory splits them.
  for (const Case& c : {Case{"memory", 2, 0x1f752bcfdb042928ull},
                        Case{"memory", 4, 0x79c95cfe463a51f4ull},
                        Case{"file", 2, 0x1f752bcfdb042928ull},
                        Case{"file", 4, 0x79c95cfe463a51f4ull},
                        Case{"directory", 2, 0x156ddcea9bc44d0full},
                        Case{"directory", 4, 0x1441df9caab96c7cull}}) {
    SCOPED_TRACE(std::string(c.layout) + " num_shards=" +
                 std::to_string(c.shards));
    EXPECT_EQ(image(c.layout, c.shards), c.expected) << "every CPU";
    uint64_t one_cpu = 0;
    std::thread([&] {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(first, &one);
      ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
      one_cpu = image(c.layout, c.shards);
    }).join();
    EXPECT_EQ(one_cpu, c.expected) << "one CPU";
  }
  std::remove((dir + ".db").c_str());
  for (size_t s = 0; s < 4; ++s) {
    char name[40];
    std::snprintf(name, sizeof(name), "/shard-%04zu.gauss", s);
    std::remove((dir + name).c_str());
  }
  std::remove((dir + "/MANIFEST").c_str());
  ::rmdir(dir.c_str());
}

}  // namespace
}  // namespace gauss
