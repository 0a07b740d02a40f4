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
// PageDevice. The one buffer pool; other PageCache classes only decorate it.
//
// Two shapes, one code path:
//  * One stripe (`num_shards` = 1) is a single global LRU. Builds, merges,
//    benches that report physical reads and tests that pin eviction order
//    use it, so every IoStats count follows the paper's cold-started LRU
//    database cache exactly. Its latch is uncontended.
//  * The default striping serves concurrent readers. All GaussServe workers
//    share one pool: a page faulted in by one worker is a hit for every
//    other worker, as in a database buffer cache under concurrent reads,
//    and the memory budget is one `capacity_pages` knob. Each fetch takes
//    one stripe latch; with the stripe count a power of two well above the
//    worker count, two workers rarely collide on a latch, and the critical
//    section is a hash probe plus an LRU splice (a device read on a miss).
//    Eviction order then depends on how page ids hash to stripes, so only
//    logical reads are comparable with a one-stripe pool.
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
//
// Copy-on-write frames: a page exists once in memory. On a miss over a
// device that lends its pages (PageDevice::StablePage — the in-memory
// device), the frame points at the device's own bytes; no buffer is
// allocated and nothing is copied. A frame gets a buffer of its own only
// when it is written — FetchMutable copies the page into it, WritePage
// fills it — and every frame over a file device reads into one. Whether a
// frame borrows or owns changes no count: a miss is one physical read
// either way, a dirty frame (always an owned one) is written back on
// eviction or FlushAll, and eviction order and the verified bit follow the
// same rules.
//
// Frame memory: an owned frame's buffer is a page-size slot of an
// anonymous mapping that the pool owns, not a heap block. Each stripe maps
// its slots in chunks of up to its budget and keeps the free ones on a
// list under its latch: an evicted or cleared frame's slot goes back on the
// list and the next frame to own one takes it, so a miss allocates nothing.
// A stripe maps another chunk only when every slot it has is taken, which
// happens only while pins force it past its budget. Slots are returned to
// the operating system when the pool is destroyed: a retired epoch's cache
// leaves the process with it, instead of staying behind in the allocator.
class ShardedBufferPool : public PageCache {
 public:
  // `capacity_pages` > 0 is the *total* budget, split evenly across shards
  // (remainder pages go to the first shards). `num_shards` must be a power
  // of two no larger than `capacity_pages`; 0 picks a default (64, or fewer
  // for small capacities so every shard can hold at least 2 pages).
  ShardedBufferPool(PageDevice* device, size_t capacity_pages,
                    size_t num_shards = 0);
  // Unmaps every slot; the frames go unflushed.
  ~ShardedBufferPool() override;

  // Pinned ref to the page, read from the device on a miss. If every frame
  // of the page's shard is pinned, the shard grows past its budget rather
  // than failing (the pins are few: a root-to-leaf path at most).
  PageRef Fetch(PageId id) override;
  PageRef FetchMutable(PageId id) override;

  void WritePage(PageId id, const void* data) override;
  void FlushAll() override;
  // The cold start the paper's experiments begin from; pinned frames stay.
  void Clear() override;

  IoStats stats() const override;
  void ResetStats() override;

  PageDevice* device() const override { return device_; }
  bool thread_safe() const override { return true; }

  size_t num_shards() const { return shards_.size(); }
  size_t capacity_pages() const { return capacity_; }
  size_t resident_pages() const;  // takes every shard latch
  // Frame slots mapped, taken or free (see "Frame memory" above); takes
  // every shard latch.
  size_t mapped_slots() const;

 private:
  struct Frame {
    // The page bytes: the device's own page while the frame borrows it,
    // else `owned`. Only an owned frame is ever written or dirty.
    const uint8_t* data = nullptr;
    uint8_t* owned = nullptr;  // a slot of the frame's shard, or nullptr
    bool dirty = false;
    std::atomic<uint32_t> pins{0};
    std::atomic<bool> verified{false};  // see PageRef::verified()
    std::list<PageId>::iterator lru_pos;
  };

  // One anonymous mapping of `slots` frame slots.
  struct Chunk {
    uint8_t* base = nullptr;
    size_t slots = 0;
  };

  struct Shard {
    mutable std::mutex latch;
    std::unordered_map<PageId, Frame> frames;
    std::list<PageId> lru;  // front = most recently used
    size_t capacity = 0;
    std::vector<Chunk> chunks;
    std::vector<uint8_t*> free_slots;
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
  // Gives a borrowing frame a slot of its own, a copy of the page when
  // `copy`; the caller is about to write it.
  void OwnLocked(Shard& shard, Frame& frame, bool copy) const;
  // Returns an owned frame's slot to its shard's free list.
  static void ReleaseSlotLocked(Shard& shard, Frame& frame);
  // The frame as a ref, pinned. Caller holds the frame's shard latch.
  static PageRef Pin(Frame& frame);

  PageDevice* device_;
  // Bytes from one slot to the next: the page size rounded up to a cache
  // line, so every slot is as aligned as the doubles on a node page.
  size_t slot_bytes_;
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
