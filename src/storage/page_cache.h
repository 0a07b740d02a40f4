#ifndef GAUSS_STORAGE_PAGE_CACHE_H_
#define GAUSS_STORAGE_PAGE_CACHE_H_

#include <atomic>
#include <cstdint>
#include <utility>

#include "storage/io_stats.h"
#include "storage/page.h"
#include "storage/page_device.h"

namespace gauss {

// RAII pin on one cached page frame. While a PageRef is alive the frame it
// points at cannot be evicted, so `data()` stays valid — this replaces the
// old raw-pointer Fetch contract ("valid until the next Fetch"), which was
// unenforceable once queries run concurrently.
//
// The ref holds a pointer to the frame's pin counter; releasing is a single
// relaxed-to-release atomic decrement and needs no cache lock. Eviction only
// considers frames whose pin count is zero (checked under the owning shard's
// latch), so a frame can never disappear between a successful Fetch and the
// matching release.
class PageRef {
 public:
  PageRef() = default;
  PageRef(uint8_t* data, std::atomic<uint32_t>* pins,
          std::atomic<bool>* verified)
      : data_(data), pins_(pins), verified_(verified) {}

  PageRef(const PageRef&) = delete;
  PageRef& operator=(const PageRef&) = delete;

  PageRef(PageRef&& other) noexcept
      : data_(std::exchange(other.data_, nullptr)),
        pins_(std::exchange(other.pins_, nullptr)),
        verified_(std::exchange(other.verified_, nullptr)) {}

  PageRef& operator=(PageRef&& other) noexcept {
    if (this != &other) {
      Release();
      data_ = std::exchange(other.data_, nullptr);
      pins_ = std::exchange(other.pins_, nullptr);
      verified_ = std::exchange(other.verified_, nullptr);
    }
    return *this;
  }

  ~PageRef() { Release(); }

  // Page contents; page_size() bytes. Valid for the lifetime of the ref.
  const uint8_t* data() const { return data_; }

  // Writable view. Only meaningful for refs obtained via FetchMutable (the
  // frame is marked dirty there, and has a buffer of its own); writing
  // through a read ref corrupts the cache's dirty tracking, or the device
  // itself when the frame borrows a device's page.
  uint8_t* mutable_data() const { return data_; }

  explicit operator bool() const { return data_ != nullptr; }

  // The frame's verified bit: set by a reader that has checked the frame's
  // bytes (the Gauss-tree node view checks a page's CRC32C once per frame,
  // gausstree/node_store.h), cleared whenever the frame's bytes change — a
  // device read installing the frame, WritePage, FetchMutable. So a cache
  // hit on a checked frame skips the check, and a frame that failed it is
  // checked (and fails) again on every fetch. An empty ref reports false
  // and ignores MarkVerified.
  bool verified() const {
    return verified_ != nullptr && verified_->load(std::memory_order_acquire);
  }
  void MarkVerified() const {
    if (verified_ != nullptr) verified_->store(true, std::memory_order_release);
  }

  void Release() {
    if (pins_ != nullptr) {
      pins_->fetch_sub(1, std::memory_order_release);
      pins_ = nullptr;
    }
    data_ = nullptr;
    verified_ = nullptr;
  }

 private:
  uint8_t* data_ = nullptr;
  std::atomic<uint32_t>* pins_ = nullptr;
  std::atomic<bool>* verified_ = nullptr;
};

// Abstract page cache in front of a PageDevice: the storage interface the
// Gauss-tree, pfv file, and X-tree layers are written against.
//
// ShardedBufferPool (sharded_buffer_pool.h) is the one pool: builds, merges
// and experiments run it with a single LRU stripe, serving with the default
// striping. The interface stays abstract for decorators, such as the tracing
// cache of bench/e2e, which wraps the pool and overrides `thread_safe()` and
// `Prefetch()`.
//
// `thread_safe()` advertises whether Fetch may be called concurrently from
// multiple threads. The pool always may; a decorator may not, so the serving
// layer (QueryService, InProcessBackend) checks it before fanning out.
class PageCache {
 public:
  virtual ~PageCache() = default;

  PageCache(const PageCache&) = delete;
  PageCache& operator=(const PageCache&) = delete;

  // Returns a pinned ref to the page contents, reading from the device on a
  // miss. The frame stays resident until the ref is released.
  virtual PageRef Fetch(PageId id) = 0;

  // Fetch for writing: marks the frame dirty. Same pin semantics.
  virtual PageRef FetchMutable(PageId id) = 0;

  // No-op with no caller in src/; kept because bench/e2e overrides it.
  virtual void Prefetch(PageId id) { (void)id; }

  // Writes a whole page through the cache (allocating a frame, marking
  // dirty) without reading the old contents from the device.
  virtual void WritePage(PageId id, const void* data) = 0;

  // Flushes all dirty frames to the device.
  virtual void FlushAll() = 0;

  // Drops every unpinned frame (flushing dirty ones first): a cold start.
  virtual void Clear() = 0;

  // Snapshot of the I/O counters (consistent only when quiescent; each
  // counter is individually exact).
  virtual IoStats stats() const = 0;
  virtual void ResetStats() = 0;

  virtual PageDevice* device() const = 0;

  // True if Fetch/FetchMutable/stats may be called concurrently.
  virtual bool thread_safe() const = 0;

  uint32_t page_size() const { return device()->page_size(); }

 protected:
  PageCache() = default;
};

}  // namespace gauss

#endif  // GAUSS_STORAGE_PAGE_CACHE_H_
