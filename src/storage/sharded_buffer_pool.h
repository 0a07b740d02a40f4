#ifndef GAUSS_STORAGE_SHARDED_BUFFER_POOL_H_
#define GAUSS_STORAGE_SHARDED_BUFFER_POOL_H_

#include <pthread.h>

#include <atomic>
#include <cstdint>
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
//  * One stripe (`num_shards` = 1) is a single global LRU over the frames
//    no reader has marked kept (see "Leaf-first eviction" below). Builds,
//    merges, benches that report physical reads and tests that pin eviction
//    order use it, so every IoStats count is exact and repeatable; where
//    nothing marks frames (the X-tree, the pfv file), it is the paper's
//    cold-started LRU database cache. Its latch is uncontended.
//  * The default striping serves concurrent readers. All GaussServe workers
//    share one pool: a page faulted in by one worker is a hit for every
//    other worker, as in a database buffer cache under concurrent reads,
//    and the memory budget is one `capacity_pages` knob. Each fetch takes
//    one stripe latch; the critical section is a hash probe plus an LRU
//    splice, never a device read. Eviction order then depends on how page
//    ids hash to stripes, so only logical reads are comparable with a
//    one-stripe pool.
//
// Leaf-first eviction: a reader may mark a frame *kept* together with its
// verified bit (PageRef::MarkVerified); the Gauss-tree marks its inner
// nodes, which every query walks, over its leaves, which few queries share
// (the argument of O'Neil, O'Neil and Weikum's LRU-K, SIGMOD 1993). Each
// stripe links its frames on two intrusive LRU lists, unkept and kept. A
// victim is the least recently used unpinned frame of the unkept list; a
// kept frame met at that list's tail moves to the head of the kept list
// instead. Kept frames are evicted, least recently used first, only when no
// unkept frame can go. The mark is cleared wherever the verified bit is, so
// a rewritten frame competes as unkept again. A pool where nothing marks
// frames evicts in exact LRU order.
//
// Concurrency protocol:
//  * Each page id maps to exactly one shard (multiplicative hash). All frame
//    state of that shard — hash map, LRU lists, dirty bits, slots — is
//    guarded by the shard latch, a mutex that spins briefly before it
//    sleeps (Latch below): the critical sections are short enough that a
//    waiter usually gets the latch without a context switch.
//  * Fetch pins the frame (atomic counter) before releasing the latch and
//    returns a PageRef; eviction runs under the latch and skips any frame
//    with a nonzero pin count, so a pinned frame's bytes can never be
//    recycled while a reader is looking at them.
//  * Device reads happen outside the latch. A miss inserts the frame pinned
//    and *loading*, releases the latch, reads the page into the frame's
//    slot and publishes it (release store, then a wake-up). A Fetch,
//    FetchMutable or WritePage that finds the frame still loading pins it
//    and waits for that read instead of issuing its own, so a page is read
//    once however many threads miss on it, and misses to other pages of the
//    stripe proceed meanwhile. PageDevice implementations must therefore
//    support concurrent Read calls (InMemoryPageDevice is naturally safe;
//    FilePageDevice uses positioned reads with no shared seek state).
//    Dirty write-backs on eviction, FlushAll or Clear still run under the
//    latch; serving pools hold no dirty frames, since served pages are
//    immutable.
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
  // of two no larger than `capacity_pages`; 0 picks a default: 64, halved
  // until every shard holds at least 16 pages (16 shards at 256 pages, one
  // below 32), so a stripe's LRU lists stay long enough to tell hot frames
  // from cold ones.
  ShardedBufferPool(PageDevice* device, size_t capacity_pages,
                    size_t num_shards = 0);
  // Unmaps every slot; the frames go unflushed.
  ~ShardedBufferPool() override;

  // Pinned ref to the page, read from the device on a miss (outside the
  // shard latch; see "Concurrency protocol"). If every frame of the page's
  // shard is pinned, the shard grows past its budget rather than failing
  // (the pins are few: a root-to-leaf path at most).
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
  // The stripe latch: glibc's adaptive mutex, which spins a bounded number
  // of times before it sleeps, where that type exists; a plain mutex
  // elsewhere. Its holders run a hash probe and a few pointer moves, so a
  // waiter that spins briefly usually gets it without a context switch.
  class Latch {
   public:
    Latch();
    ~Latch();
    Latch(const Latch&) = delete;
    Latch& operator=(const Latch&) = delete;
    void lock();
    void unlock();

   private:
    pthread_mutex_t mutex_;
  };

  struct Frame {
    PageId id = 0;
    // The page bytes: the device's own page while the frame borrows it,
    // else `owned`. Only an owned frame is ever written or dirty.
    const uint8_t* data = nullptr;
    uint8_t* owned = nullptr;  // a slot of the frame's shard, or nullptr
    bool dirty = false;
    bool on_kept_list = false;
    // Links of the LRU list the frame is on (Shard::unkept or Shard::kept).
    Frame* prev = nullptr;
    Frame* next = nullptr;
    std::atomic<uint32_t> pins{0};
    // 1 while a device read fills the frame outside the latch; waiters
    // block on it (std::atomic::wait) until the reader stores 0.
    std::atomic<uint32_t> loading{0};
    // PageRef::kVerified | PageRef::kKept, set by readers, cleared under
    // the latch whenever the frame's bytes change.
    std::atomic<uint8_t> marks{0};
  };

  // Intrusive doubly linked LRU list: head = most recently used.
  struct LruList {
    Frame* head = nullptr;
    Frame* tail = nullptr;
    void PushFront(Frame* frame);
    void Unlink(Frame* frame);
  };

  // One anonymous mapping of `slots` frame slots.
  struct Chunk {
    uint8_t* base = nullptr;
    size_t slots = 0;
  };

  struct Shard {
    mutable Latch latch;
    std::unordered_map<PageId, Frame> frames;
    LruList unkept;  // evicted first
    LruList kept;    // evicted only when no unkept frame can go
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

  // A ref to the frame of `id`, loaded, counting one logical read (and a
  // physical one on a miss). Takes and releases the shard latch; waits for
  // a read another thread has started, and reads the device outside the
  // latch on a miss.
  PageRef PinLoaded(Shard& shard, PageId id);
  // Waits until another thread's device read has filled `frame`; the
  // caller holds a pin on it and not the latch.
  static void WaitLoaded(const Frame& frame);
  // A new frame for `id`, at the head of the unkept list; evicts first if
  // the shard is full.
  Frame& InstallLocked(Shard& shard, PageId id);
  void EvictIfFullLocked(Shard& shard);
  void EvictLocked(Shard& shard, Frame& frame);
  // Moves `frame` to the head of the list it is on.
  static void TouchLocked(Shard& shard, Frame& frame);
  // The frame's bytes change: clears its marks, and a kept frame goes back
  // to the head of the unkept list.
  static void ClearMarksLocked(Shard& shard, Frame& frame);
  // Gives a borrowing frame a slot of its own, a copy of the page when
  // `copy`; the caller is about to write it or read the device into it.
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
