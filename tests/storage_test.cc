#include <atomic>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "storage/crc32c.h"
#include "storage/disk_model.h"
#include "storage/sharded_buffer_pool.h"
#include "storage/page_device.h"

namespace gauss {
namespace {

std::vector<uint8_t> Pattern(uint32_t page_size, uint8_t seed) {
  std::vector<uint8_t> data(page_size);
  for (uint32_t i = 0; i < page_size; ++i) {
    data[i] = static_cast<uint8_t>(seed + i * 31);
  }
  return data;
}

TEST(InMemoryPageDeviceTest, AllocateReadWriteRoundTrip) {
  InMemoryPageDevice device(4096);
  const PageId a = device.Allocate();
  const PageId b = device.Allocate();
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  EXPECT_EQ(device.PageCount(), 2u);

  const auto wrote = Pattern(4096, 7);
  device.Write(a, wrote.data());
  std::vector<uint8_t> read(4096);
  device.Read(a, read.data());
  EXPECT_EQ(wrote, read);
}

TEST(InMemoryPageDeviceTest, FreshPagesAreZeroed) {
  InMemoryPageDevice device(512);
  const PageId id = device.Allocate();
  std::vector<uint8_t> read(512, 0xFF);
  device.Read(id, read.data());
  for (uint8_t byte : read) EXPECT_EQ(byte, 0);
}

TEST(FilePageDeviceTest, PersistsAcrossReopen) {
  const std::string path = ::testing::TempDir() + "/gauss_file_device_test.db";
  const auto wrote = Pattern(1024, 3);
  {
    FilePageDevice device(path, 1024, /*truncate=*/true);
    const PageId id = device.Allocate();
    device.Write(id, wrote.data());
    device.Sync();
  }
  {
    FilePageDevice device(path, 1024, /*truncate=*/false);
    EXPECT_EQ(device.PageCount(), 1u);
    std::vector<uint8_t> read(1024);
    device.Read(0, read.data());
    EXPECT_EQ(wrote, read);
  }
  std::remove(path.c_str());
}

// BufferPoolTest pins the LRU cache semantics every IoStats count rests on:
// exact eviction order, write-back, cold starts and pins. A one-stripe
// ShardedBufferPool is one global LRU, so these run on it.
TEST(BufferPoolTest, SecondFetchIsLogicalOnly) {
  InMemoryPageDevice device(256);
  const PageId id = device.Allocate();
  ShardedBufferPool pool(&device, 4, /*num_shards=*/1);
  pool.Fetch(id);
  pool.Fetch(id);
  EXPECT_EQ(pool.stats().logical_reads, 2u);
  EXPECT_EQ(pool.stats().physical_reads, 1u);
}

TEST(BufferPoolTest, EvictsLeastRecentlyUsed) {
  InMemoryPageDevice device(256);
  std::vector<PageId> ids;
  for (int i = 0; i < 3; ++i) ids.push_back(device.Allocate());
  ShardedBufferPool pool(&device, 2, /*num_shards=*/1);
  pool.Fetch(ids[0]);
  pool.Fetch(ids[1]);
  pool.Fetch(ids[0]);       // ids[1] becomes LRU
  pool.Fetch(ids[2]);       // evicts ids[1]
  EXPECT_EQ(pool.stats().evictions, 1u);
  const uint64_t physical_before = pool.stats().physical_reads;
  pool.Fetch(ids[0]);       // still resident
  EXPECT_EQ(pool.stats().physical_reads, physical_before);
  pool.Fetch(ids[1]);       // was evicted: physical again
  EXPECT_EQ(pool.stats().physical_reads, physical_before + 1);
}

TEST(BufferPoolTest, DirtyPagesFlushOnEviction) {
  InMemoryPageDevice device(256);
  const PageId a = device.Allocate();
  const PageId b = device.Allocate();
  ShardedBufferPool pool(&device, 1, /*num_shards=*/1);
  {
    PageRef frame = pool.FetchMutable(a);
    frame.mutable_data()[0] = 0xAB;
  }
  pool.Fetch(b);  // evicts dirty a (its ref was released above)
  std::vector<uint8_t> read(256);
  device.Read(a, read.data());
  EXPECT_EQ(read[0], 0xAB);
  EXPECT_EQ(pool.stats().physical_writes, 1u);
}

TEST(BufferPoolTest, WritePageDoesNotReadDevice) {
  InMemoryPageDevice device(256);
  const PageId id = device.Allocate();
  ShardedBufferPool pool(&device, 2, /*num_shards=*/1);
  const auto data = Pattern(256, 9);
  pool.WritePage(id, data.data());
  EXPECT_EQ(pool.stats().physical_reads, 0u);
  const PageRef frame = pool.Fetch(id);
  EXPECT_EQ(std::memcmp(frame.data(), data.data(), 256), 0);
  EXPECT_EQ(pool.stats().physical_reads, 0u);  // still cached
}

TEST(BufferPoolTest, ClearForcesColdStart) {
  InMemoryPageDevice device(256);
  const PageId id = device.Allocate();
  ShardedBufferPool pool(&device, 4, /*num_shards=*/1);
  pool.Fetch(id);
  pool.Clear();
  pool.Fetch(id);
  EXPECT_EQ(pool.stats().physical_reads, 2u);
}

TEST(BufferPoolTest, FlushAllPersistsDirtyFrames) {
  InMemoryPageDevice device(128);
  const PageId id = device.Allocate();
  ShardedBufferPool pool(&device, 2, /*num_shards=*/1);
  pool.FetchMutable(id).mutable_data()[5] = 0x5C;
  pool.FlushAll();
  std::vector<uint8_t> read(128);
  device.Read(id, read.data());
  EXPECT_EQ(read[5], 0x5C);
}

TEST(BufferPoolTest, StatsDeltaArithmetic) {
  InMemoryPageDevice device(128);
  const PageId a = device.Allocate();
  const PageId b = device.Allocate();
  ShardedBufferPool pool(&device, 4, /*num_shards=*/1);
  pool.Fetch(a);
  const IoStats before = pool.stats();
  pool.Fetch(b);
  pool.Fetch(b);
  const IoStats delta = pool.stats() - before;
  EXPECT_EQ(delta.logical_reads, 2u);
  EXPECT_EQ(delta.physical_reads, 1u);
}

// Merging per-shard counters (+=) and taking deltas (-) are field-wise
// inverses over every IoStats counter.
TEST(IoStatsTest, CountersMergeAndSubtract) {
  IoStats part;
  part.logical_reads = 9;
  part.physical_reads = 5;
  part.physical_writes = 3;
  part.evictions = 1;
  IoStats merged;
  merged.logical_reads = 4;
  merged.physical_reads = 2;
  merged.physical_writes = 2;
  merged += part;
  EXPECT_EQ(merged.logical_reads, 13u);
  EXPECT_EQ(merged.physical_reads, 7u);
  EXPECT_EQ(merged.physical_writes, 5u);
  EXPECT_EQ(merged.evictions, 1u);
  const IoStats d = merged - part;
  EXPECT_EQ(d.logical_reads, 4u);
  EXPECT_EQ(d.physical_reads, 2u);
  EXPECT_EQ(d.physical_writes, 2u);
  EXPECT_EQ(d.evictions, 0u);
}

TEST(BufferPoolTest, CapacityRespected) {
  InMemoryPageDevice device(128);
  std::vector<PageId> ids;
  for (int i = 0; i < 20; ++i) ids.push_back(device.Allocate());
  ShardedBufferPool pool(&device, 5, /*num_shards=*/1);
  for (PageId id : ids) pool.Fetch(id);
  EXPECT_LE(pool.resident_pages(), 5u);
}

TEST(BufferPoolTest, PinnedFrameSurvivesEvictionPressure) {
  InMemoryPageDevice device(128);
  const PageId pinned = device.Allocate();
  std::vector<PageId> rest;
  for (int i = 0; i < 10; ++i) rest.push_back(device.Allocate());
  ShardedBufferPool pool(&device, 2, /*num_shards=*/1);
  const auto data = Pattern(128, 11);
  device.Write(pinned, data.data());

  const PageRef ref = pool.Fetch(pinned);
  // Hammer the tiny pool: the pinned frame must never be recycled.
  for (PageId id : rest) pool.Fetch(id);
  EXPECT_EQ(std::memcmp(ref.data(), data.data(), 128), 0);
  const uint64_t physical = pool.stats().physical_reads;
  pool.Fetch(pinned);  // still resident: no new device read
  EXPECT_EQ(pool.stats().physical_reads, physical);
}

TEST(BufferPoolTest, PinnedFrameSurvivesClear) {
  InMemoryPageDevice device(128);
  const PageId id = device.Allocate();
  ShardedBufferPool pool(&device, 4, /*num_shards=*/1);
  const PageRef ref = pool.Fetch(id);
  pool.Clear();
  EXPECT_EQ(pool.resident_pages(), 1u);  // the pinned frame stayed
  pool.Fetch(id);
  EXPECT_EQ(pool.stats().physical_reads, 1u);  // and was a cache hit
}

TEST(ShardedBufferPoolTest, FetchMatchesDeviceContents) {
  InMemoryPageDevice device(256);
  std::vector<PageId> ids;
  for (int i = 0; i < 32; ++i) {
    ids.push_back(device.Allocate());
    device.Write(ids.back(), Pattern(256, static_cast<uint8_t>(i)).data());
  }
  ShardedBufferPool pool(&device, 16, /*num_shards=*/4);
  for (int round = 0; round < 2; ++round) {
    for (int i = 0; i < 32; ++i) {
      const PageRef ref = pool.Fetch(ids[i]);
      const auto want = Pattern(256, static_cast<uint8_t>(i));
      EXPECT_EQ(std::memcmp(ref.data(), want.data(), 256), 0);
    }
  }
  EXPECT_EQ(pool.stats().logical_reads, 64u);
  EXPECT_LE(pool.resident_pages(), 16u);
}

TEST(ShardedBufferPoolTest, WarmFetchesAreLogicalOnly) {
  InMemoryPageDevice device(256);
  std::vector<PageId> ids;
  for (int i = 0; i < 8; ++i) ids.push_back(device.Allocate());
  ShardedBufferPool pool(&device, 64, /*num_shards=*/8);
  for (PageId id : ids) pool.Fetch(id);
  const uint64_t physical = pool.stats().physical_reads;
  EXPECT_EQ(physical, 8u);
  for (PageId id : ids) pool.Fetch(id);
  EXPECT_EQ(pool.stats().physical_reads, physical);
  EXPECT_EQ(pool.stats().logical_reads, 16u);
}

TEST(ShardedBufferPoolTest, ConcurrentFetchesAreConsistent) {
  InMemoryPageDevice device(256);
  std::vector<PageId> ids;
  for (int i = 0; i < 64; ++i) {
    ids.push_back(device.Allocate());
    device.Write(ids.back(), Pattern(256, static_cast<uint8_t>(i * 3)).data());
  }
  // Tiny capacity: constant eviction churn under concurrency.
  ShardedBufferPool pool(&device, 8, /*num_shards=*/4);
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (int iter = 0; iter < 400; ++iter) {
        const int i = (iter * 13 + t * 29) % 64;
        const PageRef ref = pool.Fetch(ids[i]);
        const auto want = Pattern(256, static_cast<uint8_t>(i * 3));
        if (std::memcmp(ref.data(), want.data(), 256) != 0) ++mismatches;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(pool.stats().logical_reads, 8u * 400u);
}

// The default stripe count halves from 64 until every stripe holds at least
// 2 pages (one stripe below 4 pages).
TEST(ShardedBufferPoolTest, DefaultStripeCountKeepsTwoPagesPerStripe) {
  InMemoryPageDevice device(128);
  EXPECT_EQ(ShardedBufferPool(&device, 1).num_shards(), 1u);
  EXPECT_EQ(ShardedBufferPool(&device, 4).num_shards(), 2u);
  EXPECT_EQ(ShardedBufferPool(&device, 64).num_shards(), 32u);
  EXPECT_EQ(ShardedBufferPool(&device, 4096).num_shards(), 64u);
}

// Remainder pages go to the first stripes, so once every stripe is full
// the pool holds exactly `capacity_pages` frames (10 = 3 + 3 + 2 + 2).
TEST(ShardedBufferPoolTest, RemainderPagesKeepCapacityExact) {
  InMemoryPageDevice device(128);
  std::vector<PageId> ids;
  for (int i = 0; i < 256; ++i) ids.push_back(device.Allocate());
  ShardedBufferPool pool(&device, 10, /*num_shards=*/4);
  EXPECT_EQ(pool.num_shards(), 4u);
  EXPECT_EQ(pool.capacity_pages(), 10u);
  for (PageId id : ids) pool.Fetch(id);
  EXPECT_EQ(pool.resident_pages(), 10u);
  EXPECT_EQ(pool.stats().evictions, ids.size() - 10);
}

TEST(ShardedBufferPoolDeathTest, RejectsInvalidStripeCounts) {
  InMemoryPageDevice device(128);
  EXPECT_DEATH(ShardedBufferPool(&device, 16, 3),
               "num_shards must be a power of two");
  EXPECT_DEATH(ShardedBufferPool(&device, 4, 8),
               "num_shards exceeds capacity_pages");
}

TEST(FilePageDeviceTest, TryOpenReportsFailuresInsteadOfAborting) {
  const std::string path = ::testing::TempDir() + "/gauss_tryopen_test.db";
  std::remove(path.c_str());

  // Missing file: nullptr + reason, and the probe must NOT create the file
  // (the constructor's O_CREAT semantics would turn a typo into an empty
  // database).
  std::string error;
  EXPECT_EQ(FilePageDevice::TryOpen(path, 512, &error), nullptr);
  EXPECT_NE(error.find(path), std::string::npos);
  {
    FILE* probe = std::fopen(path.c_str(), "rb");
    EXPECT_EQ(probe, nullptr);
    if (probe != nullptr) std::fclose(probe);
  }

  // Valid image: adopts the existing pages read-write.
  {
    FilePageDevice device(path, 512, /*truncate=*/true);
    const PageId id = device.Allocate();
    device.Write(id, Pattern(512, 77).data());
  }
  {
    auto device = FilePageDevice::TryOpen(path, 512, &error);
    ASSERT_NE(device, nullptr);
    EXPECT_EQ(device->PageCount(), 1u);
    std::vector<uint8_t> out(512);
    device->Read(0, out.data());
    EXPECT_EQ(out, Pattern(512, 77));
  }

  // Truncated mid-page: typed failure, not a GAUSS_CHECK abort.
  {
    FILE* f = std::fopen(path.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    std::fputc(0x5a, f);
    std::fclose(f);
  }
  error.clear();
  EXPECT_EQ(FilePageDevice::TryOpen(path, 512, &error), nullptr);
  EXPECT_NE(error.find("not a multiple"), std::string::npos);
  std::remove(path.c_str());
}

TEST(FilePageDeviceTest, ConcurrentPositionedReadsAreConsistent) {
  const std::string path =
      ::testing::TempDir() + "/gauss_concurrent_read_test.db";
  {
    FilePageDevice device(path, 512, /*truncate=*/true);
    std::vector<PageId> ids;
    for (int i = 0; i < 4; ++i) {
      ids.push_back(device.Allocate());
      device.Write(ids.back(), Pattern(512, static_cast<uint8_t>(i * 5)).data());
    }
    // Positioned reads share no seek state, so concurrent readers of
    // different pages never see each other's bytes.
    std::atomic<int> mismatches{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([&, t] {
        std::vector<uint8_t> buf(512);
        for (int iter = 0; iter < 100; ++iter) {
          const size_t i = (iter + t) % ids.size();
          device.Read(ids[i], buf.data());
          if (buf != Pattern(512, static_cast<uint8_t>(i * 5))) ++mismatches;
        }
      });
    }
    for (auto& th : threads) th.join();
    EXPECT_EQ(mismatches.load(), 0);
  }
  std::remove(path.c_str());
}

TEST(DiskModelTest, SequentialFasterThanRandomForManyPages) {
  DiskModel disk;
  EXPECT_LT(disk.SequentialReadSeconds(1000), disk.RandomReadSeconds(1000));
}

TEST(DiskModelTest, RandomCostLinearInPages) {
  DiskModel disk;
  EXPECT_NEAR(disk.RandomReadSeconds(200), 2.0 * disk.RandomReadSeconds(100),
              1e-12);
}

TEST(DiskModelTest, SequentialIsPositioningPlusTransfer) {
  DiskModel disk;
  disk.positioning_seconds = 0.01;
  disk.transfer_mb_per_second = 8.0;
  disk.page_size_bytes = 8192;
  // 8 KiB at 8 MiB/s = ~0.9765625 ms per page.
  const double per_page = 8192.0 / (8.0 * 1024 * 1024);
  EXPECT_NEAR(disk.SequentialReadSeconds(100), 0.01 + 100 * per_page, 1e-12);
  EXPECT_NEAR(disk.RandomReadSeconds(100), 100 * (0.01 + per_page), 1e-12);
}

TEST(DiskModelTest, ZeroPagesCostNothing) {
  DiskModel disk;
  EXPECT_EQ(disk.SequentialReadSeconds(0), 0.0);
  EXPECT_EQ(disk.RandomReadSeconds(0), 0.0);
}

TEST(Crc32cTest, KnownAnswerAndChaining) {
  // Printed so CI can prove which implementation each lane exercised.
  std::printf("crc32c: %s\n", Crc32cImplementation());
  const char kCheck[] = "123456789";
  EXPECT_EQ(Crc32c(kCheck, 9), 0xE3069283u);
  EXPECT_EQ(Crc32cPortable(kCheck, 9), 0xE3069283u);
  EXPECT_EQ(Crc32c(kCheck, 0), 0u);
  EXPECT_EQ(Crc32c(kCheck + 4, 5, Crc32c(kCheck, 4)), 0xE3069283u);
}

TEST(Crc32cTest, DispatchedPathMatchesPortableOnRandomBuffers) {
  Rng rng(2006);
  std::vector<uint8_t> buffer(9000 + 8);
  for (uint8_t& byte : buffer) byte = static_cast<uint8_t>(rng.UniformInt(256));
  for (size_t n = 0; n <= 9000; ++n) {
    const size_t offset = n % 8;  // unaligned starts too
    const uint32_t seed = static_cast<uint32_t>(rng.UniformInt(1ull << 32));
    ASSERT_EQ(Crc32c(buffer.data() + offset, n, seed),
              Crc32cPortable(buffer.data() + offset, n, seed))
        << "length " << n;
  }
}

// The verified bit a page check sets survives cache hits and is cleared by
// everything that can change the frame's bytes: a device read installing
// the frame again, WritePage, FetchMutable.
void ExpectVerifiedBitLifecycle(size_t num_shards) {
  InMemoryPageDevice device(1024);
  const PageId id = device.Allocate();
  ShardedBufferPool pool(&device, 4, num_shards);
  EXPECT_FALSE(pool.Fetch(id).verified());
  pool.Fetch(id).MarkVerified();
  EXPECT_TRUE(pool.Fetch(id).verified());  // hit on a checked frame
  const auto bytes = Pattern(device.page_size(), 3);
  pool.WritePage(id, bytes.data());
  EXPECT_FALSE(pool.Fetch(id).verified());
  pool.Fetch(id).MarkVerified();
  { const PageRef mutable_ref = pool.FetchMutable(id); }
  EXPECT_FALSE(pool.Fetch(id).verified());
  pool.Fetch(id).MarkVerified();
  pool.Clear();  // the next fetch reads the device again
  EXPECT_FALSE(pool.Fetch(id).verified());
  EXPECT_FALSE(PageRef().verified());
}

TEST(BufferPoolTest, VerifiedBitLifecycle) {
  ExpectVerifiedBitLifecycle(/*num_shards=*/1);
}

TEST(ShardedBufferPoolTest, VerifiedBitLifecycle) {
  ExpectVerifiedBitLifecycle(/*num_shards=*/0);
}

}  // namespace
}  // namespace gauss
