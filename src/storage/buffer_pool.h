#ifndef GAUSS_STORAGE_BUFFER_POOL_H_
#define GAUSS_STORAGE_BUFFER_POOL_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>

#include "storage/io_stats.h"
#include "storage/page.h"
#include "storage/page_cache.h"
#include "storage/page_device.h"

namespace gauss {

// LRU page cache in front of a PageDevice, with read/write accounting.
//
// The paper's workstation used up to 50 MB of database cache, cold-started
// before each experiment; Capacity is expressed in pages and the cache can be
// dropped with `Clear()` to reproduce cold starts.
//
// Single-threaded by design: this is the pool used for tree construction,
// sequential experiments, and everything else that runs one query at a time.
// Concurrent serving goes through ShardedBufferPool instead (both implement
// the PageCache interface). Fetch returns a pinned PageRef, so even in
// single-threaded use a held ref can no longer be invalidated by a later
// Fetch evicting its frame — pinned frames are skipped by eviction.
class BufferPool : public PageCache {
 public:
  // `capacity_pages` > 0. The pool does not own the device.
  BufferPool(PageDevice* device, size_t capacity_pages);

  // Returns a pinned ref to the cached page contents (page_size() bytes),
  // reading from the device on a miss. The frame cannot be evicted while the
  // ref is alive. If every frame is pinned, the pool grows past capacity
  // rather than failing (the working set of pins is small: a root-to-leaf
  // path at most).
  PageRef Fetch(PageId id) override;

  // Fetch for writing: marks the frame dirty. Same pin semantics.
  PageRef FetchMutable(PageId id) override;

  // Writes a whole page through the pool (allocating a frame, marking dirty).
  void WritePage(PageId id, const void* data) override;

  // Flushes all dirty frames to the device.
  void FlushAll() override;

  // Drops every unpinned frame (flushing dirty ones first): a cold start.
  void Clear() override;

  IoStats stats() const override { return stats_; }
  void ResetStats() override { stats_.Reset(); }

  PageDevice* device() const override { return device_; }
  bool thread_safe() const override { return false; }

  size_t capacity_pages() const { return capacity_; }
  size_t resident_pages() const { return frames_.size(); }

 private:
  struct Frame {
    std::unique_ptr<uint8_t[]> data;
    bool dirty = false;
    std::atomic<uint32_t> pins{0};
    std::atomic<bool> verified{false};  // see PageRef::verified()
    std::list<PageId>::iterator lru_pos;
  };

  // Moves `id` to the most-recently-used position.
  void Touch(PageId id, Frame& frame);

  // Ensures a free slot exists, evicting the least recently used *unpinned*
  // frame if needed. No-op when every frame is pinned.
  void EvictIfFull();

  // Frame lookup/load with LRU maintenance; counts one logical read.
  Frame& GetFrame(PageId id);

  PageDevice* device_;
  size_t capacity_;
  std::unordered_map<PageId, Frame> frames_;
  std::list<PageId> lru_;  // front = most recently used
  IoStats stats_;
};

}  // namespace gauss

#endif  // GAUSS_STORAGE_BUFFER_POOL_H_
