#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
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

size_t OsPage() { return static_cast<size_t>(::sysconf(_SC_PAGESIZE)); }

// A device page of two OS pages.
uint32_t TwoOsPages() {
  return static_cast<uint32_t>(2 * std::max<size_t>(4096, OsPage()));
}

// Whether each OS page of the device's page `id` is resident, read with
// mincore(2) on the device's own mapping.
std::vector<bool> ResidentOsPages(const InMemoryPageDevice& device,
                                  PageId id) {
  std::vector<unsigned char> pages(device.page_size() / OsPage());
  void* address = const_cast<uint8_t*>(device.StablePage(id));
  EXPECT_EQ(::mincore(address, device.page_size(), pages.data()), 0);
  std::vector<bool> resident;
  for (const unsigned char p : pages) resident.push_back((p & 1) != 0);
  return resident;
}

// Segments are anonymous mappings: a page of a fresh segment is resident
// once written, not once allocated, and reads as zeros until then.
TEST(InMemoryPageDeviceTest, PagesBecomeResidentWhenWritten) {
  const auto page_size =
      static_cast<uint32_t>(std::max<size_t>(8192, OsPage()));
  InMemoryPageDevice device(page_size);
  PageId id = kInvalidPageId;
  for (int i = 0; i <= 64; ++i) id = device.Allocate();  // opens segment 1
  const std::vector<bool> none(page_size / OsPage(), false);
  EXPECT_EQ(ResidentOsPages(device, id), none);
  std::vector<uint8_t> read(page_size, 0xFF);
  device.Read(id, read.data());
  EXPECT_EQ(read, std::vector<uint8_t>(page_size, 0));
  device.Write(id, Pattern(page_size, 3).data());
  EXPECT_EQ(ResidentOsPages(device, id),
            std::vector<bool>(page_size / OsPage(), true));
}

// A half-full page takes one OS page: the all-zero second half is not
// copied, stays unbacked, and still reads back as written.
TEST(InMemoryPageDeviceTest, ZeroTailStaysNonResident) {
  const uint32_t page_size = TwoOsPages();
  InMemoryPageDevice device(page_size);
  const PageId id = device.Allocate();
  std::vector<uint8_t> wrote = Pattern(page_size, 4);
  std::fill(wrote.begin() + page_size / 2, wrote.end(), 0);
  device.Write(id, wrote.data());
  EXPECT_EQ(ResidentOsPages(device, id), (std::vector<bool>{true, false}));
  std::vector<uint8_t> read(page_size, 0xFF);
  device.Read(id, read.data());
  EXPECT_EQ(read, wrote);
}

// Rewriting a page whose old tail held bytes with an all-zero tail zeroes
// the old tail: a skipped copy never leaves stale bytes behind.
TEST(InMemoryPageDeviceTest, ZeroTailOverwritesOldBytes) {
  const uint32_t page_size = TwoOsPages();
  InMemoryPageDevice device(page_size);
  const PageId id = device.Allocate();
  device.Write(id, Pattern(page_size, 5).data());
  std::vector<uint8_t> wrote = Pattern(page_size, 6);
  std::fill(wrote.begin() + page_size / 2, wrote.end(), 0);
  device.Write(id, wrote.data());
  std::vector<uint8_t> read(page_size, 0xFF);
  device.Read(id, read.data());
  EXPECT_EQ(read, wrote);
  const uint8_t* lent = device.StablePage(id);
  EXPECT_EQ(std::vector<uint8_t>(lent, lent + page_size), wrote);
}

// Recycled pages give their memory back at once, on both sides of a
// segment boundary, and Allocate() hands them out again without touching
// them: they read zeros and stay unbacked until written.
TEST(InMemoryPageDeviceTest, RecycledPagesGiveTheirMemoryBack) {
  const uint32_t page_size = TwoOsPages();
  InMemoryPageDevice device(page_size);
  for (uint8_t i = 0; i < 70; ++i) {  // segment 0 holds pages 0-63
    device.Write(device.Allocate(), Pattern(page_size, i).data());
  }
  const std::vector<PageId> recycled = {2, 62, 63, 64, 65};
  device.Recycle(recycled);
  const std::vector<bool> none(2, false);
  for (const PageId id : recycled) {
    EXPECT_EQ(ResidentOsPages(device, id), none) << "page " << id;
  }
  EXPECT_EQ(ResidentOsPages(device, 61), (std::vector<bool>{true, true}));
  const std::vector<uint8_t> zeros(page_size, 0);
  std::vector<uint8_t> read(page_size);
  for (const PageId id : recycled) {
    EXPECT_EQ(device.Allocate(), id);
    EXPECT_EQ(ResidentOsPages(device, id), none) << "page " << id;
    device.Read(id, read.data());
    EXPECT_EQ(read, zeros) << "page " << id;
  }
  device.Read(61, read.data());
  EXPECT_EQ(read, Pattern(page_size, 61));
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

// An appended page extends the file without a write of its own: it reads
// as zeros before and after a reopen, and a neighbour's write leaves it so.
TEST(FilePageDeviceTest, AppendedPagesReadZeros) {
  const std::string path = ::testing::TempDir() + "/gauss_file_append_test.db";
  const std::vector<uint8_t> zeros(1024, 0);
  const auto wrote = Pattern(1024, 5);
  {
    FilePageDevice device(path, 1024, /*truncate=*/true);
    EXPECT_EQ(device.Allocate(), 0u);
    EXPECT_EQ(device.Allocate(), 1u);
    device.Write(1, wrote.data());
    EXPECT_EQ(device.Allocate(), 2u);
    EXPECT_EQ(device.PageCount(), 3u);
    std::vector<uint8_t> read(1024, 0xFF);
    for (const PageId id : {PageId{0}, PageId{2}}) {
      device.Read(id, read.data());
      EXPECT_EQ(read, zeros) << "page " << id;
    }
    device.Sync();
  }
  FilePageDevice device(path, 1024, /*truncate=*/false);
  EXPECT_EQ(device.PageCount(), 3u);
  std::vector<uint8_t> read(1024, 0xFF);
  device.Read(0, read.data());
  EXPECT_EQ(read, zeros);
  device.Read(1, read.data());
  EXPECT_EQ(read, wrote);
  device.Read(2, read.data());
  EXPECT_EQ(read, zeros);
  std::remove(path.c_str());
}

// Recycle() on either device: Allocate() hands the recycled ids back lowest
// first, each zero-filled, before it appends again; the page count never
// moves.
void ExpectRecycleLowestFirstZeroFilled(PageDevice* device) {
  const uint32_t page_size = device->page_size();
  for (uint8_t i = 0; i < 6; ++i) {
    device->Write(device->Allocate(), Pattern(page_size, i).data());
  }
  EXPECT_EQ(device->FreePageCount(), 0u);
  device->Recycle({4, 1, 3});
  EXPECT_EQ(device->FreePageCount(), 3u);
  EXPECT_EQ(device->PageCount(), 6u);
  const std::vector<uint8_t> zeros(page_size, 0);
  std::vector<uint8_t> read(page_size);
  for (PageId want : {1u, 3u, 4u}) {
    EXPECT_EQ(device->Allocate(), want);
    device->Read(want, read.data());
    EXPECT_EQ(read, zeros) << "page " << want;
  }
  EXPECT_EQ(device->FreePageCount(), 0u);
  EXPECT_EQ(device->PageCount(), 6u);
  EXPECT_EQ(device->Allocate(), 6u);  // the free set is empty: append
  // Pages never recycled keep their bytes.
  device->Read(2, read.data());
  EXPECT_EQ(read, Pattern(page_size, 2));
}

TEST(InMemoryPageDeviceTest, RecycledPagesAreReusedLowestFirstZeroFilled) {
  InMemoryPageDevice device(512);
  ExpectRecycleLowestFirstZeroFilled(&device);
}

TEST(FilePageDeviceTest, RecycledPagesAreReusedLowestFirstZeroFilled) {
  const std::string path = ::testing::TempDir() + "/gauss_file_recycle.db";
  {
    FilePageDevice device(path, 512, /*truncate=*/true);
    ExpectRecycleLowestFirstZeroFilled(&device);
  }
  std::remove(path.c_str());
}

// A recycled page keeps its address: a pool that lends it (StablePage)
// after the reuse sees the new bytes, at the same memory.
TEST(InMemoryPageDeviceTest, RecycledPageKeepsItsStableAddress) {
  InMemoryPageDevice device(512);
  for (int i = 0; i < 200; ++i) device.Allocate();  // spans 2 segments
  const uint8_t* low = device.StablePage(5);
  const uint8_t* high = device.StablePage(150);
  device.Write(150, Pattern(512, 9).data());
  device.Recycle({150, 5});
  EXPECT_EQ(device.Allocate(), 5u);
  EXPECT_EQ(device.Allocate(), 150u);
  EXPECT_EQ(device.StablePage(5), low);
  EXPECT_EQ(device.StablePage(150), high);
  EXPECT_EQ(std::vector<uint8_t>(high, high + 512),
            std::vector<uint8_t>(512, 0));
}

TEST(PageDeviceDeathTest, RecycleRejectsUnallocatedAndDuplicatePages) {
  InMemoryPageDevice device(512);
  device.Allocate();
  device.Allocate();
  EXPECT_DEATH(device.Recycle({2}), "");
  device.Recycle({1});
  EXPECT_DEATH(device.Recycle({1}), "recycled twice");
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

// An in-memory device that lends no page, so every frame over it owns a
// slot, as over a file.
class UnlentDevice : public InMemoryPageDevice {
 public:
  using InMemoryPageDevice::InMemoryPageDevice;
  const uint8_t* StablePage(PageId) const override { return nullptr; }
};

// `count` pages of `device`, page i filled with Pattern(i).
std::vector<PageId> PatternedPages(PageDevice* device, int count) {
  std::vector<PageId> ids;
  for (int i = 0; i < count; ++i) {
    ids.push_back(device->Allocate());
    device->Write(ids.back(),
                  Pattern(device->page_size(), static_cast<uint8_t>(i)).data());
  }
  return ids;
}

// Frames take their buffers from slots the pool maps: eviction churn over
// a device that lends nothing reuses the slots it has, so a one-stripe pool
// maps its budget once; a frame over a lending device takes no slot until
// it is written.
TEST(ShardedBufferPoolTest, EvictionChurnReusesSlots) {
  UnlentDevice device(256);
  const std::vector<PageId> ids = PatternedPages(&device, 40);
  ShardedBufferPool pool(&device, 8, /*num_shards=*/1);
  EXPECT_EQ(pool.mapped_slots(), 0u);
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 40; ++i) {
      const PageRef ref = pool.Fetch(ids[i]);
      const auto want = Pattern(256, static_cast<uint8_t>(i));
      EXPECT_EQ(std::memcmp(ref.data(), want.data(), 256), 0) << "page " << i;
    }
  }
  EXPECT_EQ(pool.stats().evictions, 3u * 40u - 8u);
  EXPECT_EQ(pool.resident_pages(), 8u);
  EXPECT_EQ(pool.mapped_slots(), 8u);
  pool.Clear();  // every slot back on the free list
  for (int i = 0; i < 8; ++i) pool.Fetch(ids[i]);
  EXPECT_EQ(pool.mapped_slots(), 8u);

  InMemoryPageDevice lending(256);
  const std::vector<PageId> lent = PatternedPages(&lending, 4);
  ShardedBufferPool borrowing(&lending, 4, /*num_shards=*/1);
  for (PageId id : lent) borrowing.Fetch(id);
  EXPECT_EQ(borrowing.mapped_slots(), 0u);
  borrowing.FetchMutable(lent[0]).mutable_data()[0] = 1;
  EXPECT_EQ(borrowing.mapped_slots(), 4u);
}

// Pins that hold every frame force the stripe past its budget: it maps
// another chunk. Once the pins go, eviction brings the frames back to the
// budget, and the slots are reused without a third chunk.
TEST(ShardedBufferPoolTest, PinnedOvershootMapsAnotherChunk) {
  UnlentDevice device(256);
  const std::vector<PageId> ids = PatternedPages(&device, 30);
  ShardedBufferPool pool(&device, 4, /*num_shards=*/1);
  {
    std::vector<PageRef> pins;
    for (int i = 0; i < 6; ++i) pins.push_back(pool.Fetch(ids[i]));
    EXPECT_EQ(pool.resident_pages(), 6u);
    EXPECT_EQ(pool.mapped_slots(), 8u);
    for (int i = 0; i < 6; ++i) {
      const auto want = Pattern(256, static_cast<uint8_t>(i));
      EXPECT_EQ(std::memcmp(pins[i].data(), want.data(), 256), 0);
    }
  }
  for (int round = 0; round < 2; ++round) {
    for (int i = 6; i < 30; ++i) {
      const PageRef ref = pool.Fetch(ids[i]);
      const auto want = Pattern(256, static_cast<uint8_t>(i));
      EXPECT_EQ(std::memcmp(ref.data(), want.data(), 256), 0) << "page " << i;
      EXPECT_LE(pool.resident_pages(), 4u);
    }
  }
  EXPECT_EQ(pool.mapped_slots(), 8u);
}

// Fetches, evictions, pins held across other fetches, writes of pages no
// other thread reads, and Clear, all at once on a small striped pool whose
// frames own slots: every read sees its page's bytes.
TEST(ShardedBufferPoolTest, ConcurrentFetchEvictPinReusesSlotsCleanly) {
  constexpr int kShared = 48;
  constexpr int kThreads = 4;
  UnlentDevice device(256);
  const std::vector<PageId> ids = PatternedPages(&device, kShared + kThreads);
  ShardedBufferPool pool(&device, 8, /*num_shards=*/4);
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(900 + t);
      const PageId own = ids[kShared + t];  // written by this thread only
      for (int iter = 0; iter < 500; ++iter) {
        const int a = static_cast<int>(rng.NextU64() % kShared);
        const int b = static_cast<int>(rng.NextU64() % kShared);
        const PageRef held = pool.Fetch(ids[a]);
        {
          const PageRef other = pool.Fetch(ids[b]);
          const auto want = Pattern(256, static_cast<uint8_t>(b));
          if (std::memcmp(other.data(), want.data(), 256) != 0) ++mismatches;
        }
        if (iter % 50 == 0) pool.Clear();
        if (iter % 7 == 0) {
          const auto mine = Pattern(256, static_cast<uint8_t>(iter));
          pool.WritePage(own, mine.data());
          const PageRef back = pool.Fetch(own);
          if (std::memcmp(back.data(), mine.data(), 256) != 0) {
            ++mismatches;
          }
        }
        const auto want = Pattern(256, static_cast<uint8_t>(a));
        if (std::memcmp(held.data(), want.data(), 256) != 0) ++mismatches;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
  // Each thread pins at most three frames at a time.
  EXPECT_LE(pool.mapped_slots(), 8u + 4u * (3u * kThreads));
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

// A clean frame over an in-memory device is the device's own page: Fetch
// hands out the device's address, copies nothing and allocates nothing,
// and still counts a miss as one physical read.
void ExpectCleanFetchBorrowsDevicePage(size_t num_shards) {
  InMemoryPageDevice device(256);
  std::vector<PageId> ids;
  for (int i = 0; i < 32; ++i) {
    ids.push_back(device.Allocate());
    device.Write(ids.back(), Pattern(256, static_cast<uint8_t>(i)).data());
  }
  ShardedBufferPool pool(&device, 8, num_shards);
  for (int round = 0; round < 2; ++round) {
    for (PageId id : ids) {
      const PageRef ref = pool.Fetch(id);
      EXPECT_EQ(ref.data(), device.StablePage(id));
    }
  }
  EXPECT_EQ(pool.stats().logical_reads, 64u);
  EXPECT_GE(pool.stats().physical_reads, 32u);
}

TEST(BufferPoolTest, CleanFetchBorrowsDevicePage) {
  ExpectCleanFetchBorrowsDevicePage(/*num_shards=*/1);
}

TEST(ShardedBufferPoolTest, CleanFetchBorrowsDevicePage) {
  ExpectCleanFetchBorrowsDevicePage(/*num_shards=*/0);
}

// Writing a borrowed frame gives it a buffer of its own: the device page
// keeps its bytes until the frame is written back — by FlushAll or on
// eviction, one physical write each — and the frame's verified bit drops
// with the copy.
void ExpectWritesCopyOnWrite(size_t num_shards) {
  InMemoryPageDevice device(256);
  const auto original = Pattern(256, 1);
  std::vector<PageId> ids;
  for (int i = 0; i < 64; ++i) {
    ids.push_back(device.Allocate());
    device.Write(ids.back(), original.data());
  }
  const PageId a = ids[0], b = ids[1];
  const auto device_bytes = [&](PageId id) {
    return std::vector<uint8_t>(device.StablePage(id),
                                device.StablePage(id) + 256);
  };
  ShardedBufferPool pool(&device, 8, num_shards);

  // FetchMutable copies the page before the caller writes it.
  pool.Fetch(a).MarkVerified();
  {
    const PageRef ref = pool.FetchMutable(a);
    EXPECT_NE(ref.data(), device.StablePage(a));
    EXPECT_EQ(std::memcmp(ref.data(), original.data(), 256), 0);
    EXPECT_FALSE(ref.verified());
    ref.mutable_data()[0] = 0xAB;
  }
  EXPECT_EQ(device_bytes(a), original);
  EXPECT_EQ(pool.Fetch(a).data()[0], 0xAB);

  // WritePage over a borrowed frame, too.
  pool.Fetch(b).MarkVerified();
  const auto written = Pattern(256, 7);
  pool.WritePage(b, written.data());
  EXPECT_EQ(device_bytes(b), original);
  {
    const PageRef ref = pool.Fetch(b);
    EXPECT_NE(ref.data(), device.StablePage(b));
    EXPECT_EQ(std::memcmp(ref.data(), written.data(), 256), 0);
    EXPECT_FALSE(ref.verified());
  }
  EXPECT_EQ(pool.stats().physical_writes, 0u);

  pool.FlushAll();
  EXPECT_EQ(pool.stats().physical_writes, 2u);
  EXPECT_EQ(device_bytes(a)[0], 0xAB);
  EXPECT_EQ(device_bytes(b), written);

  // Eviction writes a dirty frame back exactly once; the page's next frame
  // borrows the device page again.
  pool.WritePage(a, original.data());
  EXPECT_EQ(device_bytes(a)[0], 0xAB);
  for (PageId id : ids) {
    if (id != a) pool.Fetch(id);
  }
  EXPECT_EQ(pool.stats().physical_writes, 3u);
  EXPECT_EQ(device_bytes(a), original);
  EXPECT_EQ(pool.Fetch(a).data(), device.StablePage(a));
}

TEST(BufferPoolTest, WritesCopyOnWrite) {
  ExpectWritesCopyOnWrite(/*num_shards=*/1);
}

TEST(ShardedBufferPoolTest, WritesCopyOnWrite) {
  ExpectWritesCopyOnWrite(/*num_shards=*/0);
}

// A file device lends no memory: every frame reads the page into a buffer
// of its own, and a write reaches the file only on write-back.
void ExpectFileFramesCopy(size_t num_shards) {
  const std::string path = ::testing::TempDir() + "/gauss_file_frames_" +
                           std::to_string(num_shards) + ".db";
  {
    FilePageDevice device(path, 256, /*truncate=*/true);
    const PageId id = device.Allocate();
    const auto original = Pattern(256, 4);
    device.Write(id, original.data());
    EXPECT_EQ(device.StablePage(id), nullptr);
    ShardedBufferPool pool(&device, 2, num_shards);
    {
      const PageRef ref = pool.Fetch(id);
      ASSERT_TRUE(ref);
      EXPECT_EQ(std::memcmp(ref.data(), original.data(), 256), 0);
    }
    pool.FetchMutable(id).mutable_data()[0] = 0x5C;
    std::vector<uint8_t> read(256);
    device.Read(id, read.data());
    EXPECT_EQ(read, original);
    pool.FlushAll();
    device.Read(id, read.data());
    EXPECT_EQ(read[0], 0x5C);
    EXPECT_EQ(pool.stats().physical_reads, 1u);
    EXPECT_EQ(pool.stats().physical_writes, 1u);
  }
  std::remove(path.c_str());
}

TEST(BufferPoolTest, FileFramesCopy) {
  ExpectFileFramesCopy(/*num_shards=*/1);
}

TEST(ShardedBufferPoolTest, FileFramesCopy) {
  ExpectFileFramesCopy(/*num_shards=*/0);
}

}  // namespace
}  // namespace gauss
