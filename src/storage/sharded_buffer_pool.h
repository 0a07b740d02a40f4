#ifndef GAUSS_STORAGE_SHARDED_BUFFER_POOL_H_
#define GAUSS_STORAGE_SHARDED_BUFFER_POOL_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "storage/io_stats.h"
#include "storage/page.h"
#include "storage/page_cache.h"
#include "storage/page_device.h"

namespace gauss {

// Thread-safe page cache: N latch-striped LRU shards in front of one shared
// PageDevice.
//
// Design choice (vs. per-worker private pools): GaussServe workers share one
// sharded pool rather than each owning a private BufferPool. A shared pool
// means a page faulted in by one worker is a hit for every other worker —
// exactly the behaviour of a database buffer cache under concurrent reads —
// and the total memory budget is a single `capacity_pages` knob instead of
// (workers x capacity). The cost is a shard latch on every fetch; with the
// shard count a power of two well above the worker count, the probability of
// two workers colliding on a latch at the same instant is low, and the
// critical section is a hash probe plus an LRU splice (a device read on a
// miss). Per-worker pools would avoid the latch but multiply cold misses and
// memory by the worker count, which is the wrong trade for a read-mostly
// serving tree.
//
// Concurrency protocol:
//  * Each page id maps to exactly one shard (multiplicative hash). All frame
//    state of that shard — hash map, LRU list, dirty bits — is guarded by
//    the shard latch.
//  * Fetch pins the frame (atomic counter) before releasing the latch and
//    returns a PageRef; eviction runs under the latch and skips any frame
//    with a nonzero pin count, so a pinned frame's bytes can never be
//    recycled while a reader is looking at them.
//  * Device reads on a miss happen while holding the shard latch: misses to
//    the *same* shard serialize (harmless: they would race on the same LRU
//    anyway), misses to different shards proceed in parallel. PageDevice
//    implementations must therefore support concurrent Read calls
//    (InMemoryPageDevice is naturally safe; FilePageDevice uses positioned
//    reads with no shared seek state).
//  * IoStats are aggregated with relaxed atomics: counters are exact in
//    total, but a snapshot taken mid-traffic may be torn across counters.
class ShardedBufferPool : public PageCache {
 public:
  // `capacity_pages` > 0 is the *total* budget, split evenly across shards.
  // `num_shards` must be a power of two; 0 picks a default (64, or fewer for
  // tiny capacities so every shard can hold at least 2 pages).
  ShardedBufferPool(PageDevice* device, size_t capacity_pages,
                    size_t num_shards = 0);

  PageRef Fetch(PageId id) override;
  PageRef FetchMutable(PageId id) override;

  void WritePage(PageId id, const void* data) override;
  void FlushAll() override;
  void Clear() override;

  IoStats stats() const override;
  void ResetStats() override;

  PageDevice* device() const override { return device_; }
  bool thread_safe() const override { return true; }

  size_t num_shards() const { return shards_.size(); }
  size_t capacity_pages() const { return capacity_; }
  size_t resident_pages() const;  // takes every shard latch

 private:
  struct Frame {
    std::unique_ptr<uint8_t[]> data;
    bool dirty = false;
    std::atomic<uint32_t> pins{0};
    std::atomic<bool> verified{false};  // see PageRef::verified()
    std::list<PageId>::iterator lru_pos;
  };

  struct Shard {
    mutable std::mutex latch;
    std::unordered_map<PageId, Frame> frames;
    std::list<PageId> lru;  // front = most recently used
    size_t capacity = 0;
  };

  Shard& ShardFor(PageId id) {
    // Fibonacci multiplicative hash: page ids are sequential, so low bits
    // alone would put neighbouring tree nodes in neighbouring shards and
    // make latch collisions between co-traversing workers likelier.
    const uint32_t h = static_cast<uint32_t>(id) * 2654435769u;
    return shards_[(h >> 16) & shard_mask_];
  }

  // Frame lookup/load with LRU maintenance; counts one logical read.
  // Caller holds `shard.latch`.
  Frame& GetFrameLocked(Shard& shard, PageId id);
  void EvictIfFullLocked(Shard& shard);

  PageDevice* device_;
  size_t capacity_;
  size_t shard_mask_;
  std::vector<Shard> shards_;

  // Relaxed-atomic I/O accounting shared by all shards.
  mutable std::atomic<uint64_t> logical_reads_{0};
  mutable std::atomic<uint64_t> physical_reads_{0};
  mutable std::atomic<uint64_t> physical_writes_{0};
  mutable std::atomic<uint64_t> evictions_{0};
};

}  // namespace gauss

#endif  // GAUSS_STORAGE_SHARDED_BUFFER_POOL_H_
