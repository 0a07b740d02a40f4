#include "storage/sharded_buffer_pool.h"

#include <sys/mman.h>

#include <algorithm>
#include <cstring>

#include "common/macros.h"

namespace gauss {

namespace {

// Fewest pages a default stripe holds: with fewer, a stripe's two LRU lists
// are too short to keep a hot frame over a burst of cold ones.
constexpr size_t kMinDefaultShardPages = 16;

size_t PickShardCount(size_t capacity_pages, size_t requested) {
  if (requested != 0) {
    GAUSS_CHECK_MSG((requested & (requested - 1)) == 0,
                    "num_shards must be a power of two");
    GAUSS_CHECK_MSG(requested <= capacity_pages,
                    "num_shards exceeds capacity_pages: every shard needs "
                    "at least one page of budget");
    return requested;
  }
  // Default: 64 shards, shrunk so every shard can cache at least 16 pages.
  size_t shards = 64;
  while (shards > 1 && capacity_pages / shards < kMinDefaultShardPages) {
    shards /= 2;
  }
  return shards;
}

// Most slots one chunk maps: a stripe with a larger budget maps it in
// several chunks, as its frames need them.
constexpr size_t kMaxChunkSlots = 256;

}  // namespace

ShardedBufferPool::Latch::Latch() {
  pthread_mutexattr_t attr;
  pthread_mutexattr_init(&attr);
#if defined(__GLIBC__)
  pthread_mutexattr_settype(&attr, PTHREAD_MUTEX_ADAPTIVE_NP);
#endif
  pthread_mutex_init(&mutex_, &attr);
  pthread_mutexattr_destroy(&attr);
}

ShardedBufferPool::Latch::~Latch() { pthread_mutex_destroy(&mutex_); }

void ShardedBufferPool::Latch::lock() {
  const int rc = pthread_mutex_lock(&mutex_);
  GAUSS_CHECK_MSG(rc == 0, "ShardedBufferPool: cannot take a stripe latch");
}

void ShardedBufferPool::Latch::unlock() { pthread_mutex_unlock(&mutex_); }

void ShardedBufferPool::LruList::PushFront(Frame* frame) {
  frame->prev = nullptr;
  frame->next = head;
  if (head != nullptr) {
    head->prev = frame;
  } else {
    tail = frame;
  }
  head = frame;
}

void ShardedBufferPool::LruList::Unlink(Frame* frame) {
  (frame->prev != nullptr ? frame->prev->next : head) = frame->next;
  (frame->next != nullptr ? frame->next->prev : tail) = frame->prev;
  frame->prev = frame->next = nullptr;
}

ShardedBufferPool::ShardedBufferPool(PageDevice* device, size_t capacity_pages,
                                     size_t num_shards)
    : device_(device),
      slot_bytes_(0),
      capacity_(capacity_pages),
      shard_mask_(0),
      shards_(PickShardCount(capacity_pages, num_shards)) {
  GAUSS_CHECK(device != nullptr);
  GAUSS_CHECK(capacity_pages > 0);
  slot_bytes_ = (size_t{device->page_size()} + 63) / 64 * 64;
  shard_mask_ = shards_.size() - 1;
  // Split the budget evenly; remainder pages go to the first shards so the
  // total capacity is exact.
  const size_t base = capacity_ / shards_.size();
  const size_t extra = capacity_ % shards_.size();
  for (size_t i = 0; i < shards_.size(); ++i) {
    shards_[i].capacity = base + (i < extra ? 1 : 0);
  }
}

ShardedBufferPool::~ShardedBufferPool() {
  for (Shard& shard : shards_) {
    for (const Chunk& chunk : shard.chunks) {
      ::munmap(chunk.base, chunk.slots * slot_bytes_);
    }
  }
}

void ShardedBufferPool::ReleaseSlotLocked(Shard& shard, Frame& frame) {
  if (frame.owned != nullptr) shard.free_slots.push_back(frame.owned);
}

void ShardedBufferPool::EvictLocked(Shard& shard, Frame& frame) {
  if (frame.dirty) {
    device_->Write(frame.id, frame.data);
    physical_writes_.fetch_add(1, std::memory_order_relaxed);
  }
  ReleaseSlotLocked(shard, frame);
  (frame.on_kept_list ? shard.kept : shard.unkept).Unlink(&frame);
  shard.frames.erase(frame.id);
}

void ShardedBufferPool::EvictIfFullLocked(Shard& shard) {
  // Evict until strictly below capacity so earlier pin-forced overshoot is
  // reclaimed once the pins are gone, not carried forever. Unkept frames go
  // first; a kept frame met on their list moves to the kept list instead.
  for (Frame* frame = shard.unkept.tail;
       frame != nullptr && shard.frames.size() >= shard.capacity;) {
    Frame* const older = frame->prev;
    if (frame->pins.load(std::memory_order_acquire) != 0) {
      // Pinned frames must stay resident.
    } else if ((frame->marks.load(std::memory_order_relaxed) &
                PageRef::kKept) != 0) {
      shard.unkept.Unlink(frame);
      shard.kept.PushFront(frame);
      frame->on_kept_list = true;
    } else {
      EvictLocked(shard, *frame);
      evictions_.fetch_add(1, std::memory_order_relaxed);
    }
    frame = older;
  }
  for (Frame* frame = shard.kept.tail;
       frame != nullptr && shard.frames.size() >= shard.capacity;) {
    Frame* const older = frame->prev;
    if (frame->pins.load(std::memory_order_acquire) == 0) {
      EvictLocked(shard, *frame);
      evictions_.fetch_add(1, std::memory_order_relaxed);
    }
    frame = older;
  }
  // Exhausted both lists with every frame pinned: grow past the shard
  // budget instead of failing.
}

void ShardedBufferPool::TouchLocked(Shard& shard, Frame& frame) {
  LruList& list = frame.on_kept_list ? shard.kept : shard.unkept;
  if (list.head == &frame) return;
  list.Unlink(&frame);
  list.PushFront(&frame);
}

void ShardedBufferPool::ClearMarksLocked(Shard& shard, Frame& frame) {
  frame.marks.store(0, std::memory_order_relaxed);
  if (!frame.on_kept_list) return;
  shard.kept.Unlink(&frame);
  shard.unkept.PushFront(&frame);
  frame.on_kept_list = false;
}

ShardedBufferPool::Frame& ShardedBufferPool::InstallLocked(Shard& shard,
                                                           PageId id) {
  EvictIfFullLocked(shard);
  auto [pos, inserted] = shard.frames.try_emplace(id);
  GAUSS_CHECK(inserted);
  Frame& frame = pos->second;
  frame.id = id;
  shard.unkept.PushFront(&frame);
  return frame;
}

void ShardedBufferPool::WaitLoaded(const Frame& frame) {
  while (frame.loading.load(std::memory_order_acquire) != 0) {
    frame.loading.wait(1, std::memory_order_acquire);
  }
}

PageRef ShardedBufferPool::PinLoaded(Shard& shard, PageId id) {
  std::unique_lock<Latch> lock(shard.latch);
  logical_reads_.fetch_add(1, std::memory_order_relaxed);
  auto it = shard.frames.find(id);
  if (it != shard.frames.end()) {
    Frame& frame = it->second;
    TouchLocked(shard, frame);
    PageRef ref = Pin(frame);
    if (frame.loading.load(std::memory_order_acquire) != 0) {
      // Another thread's read fills the frame: wait for it, latch released.
      lock.unlock();
      WaitLoaded(frame);
    }
    return ref;
  }
  Frame& frame = InstallLocked(shard, id);
  physical_reads_.fetch_add(1, std::memory_order_relaxed);
  frame.data = device_->StablePage(id);
  if (frame.data != nullptr) return Pin(frame);  // lent: nothing to read
  OwnLocked(shard, frame, /*copy=*/false);
  frame.loading.store(1, std::memory_order_relaxed);
  PageRef ref = Pin(frame);
  lock.unlock();
  // The pin keeps the frame and its slot; `loading` keeps other threads
  // off its bytes until the read is published.
  device_->Read(id, frame.owned);
  frame.loading.store(0, std::memory_order_release);
  frame.loading.notify_all();
  return ref;
}

void ShardedBufferPool::OwnLocked(Shard& shard, Frame& frame,
                                  bool copy) const {
  if (frame.owned != nullptr) return;
  if (shard.free_slots.empty()) {
    // Every slot is taken: the first chunk, or pins hold the stripe past its
    // budget. Untouched slots of a chunk cost no memory.
    const size_t slots = std::min(std::max<size_t>(shard.capacity, 1),
                                  kMaxChunkSlots);
    void* base = ::mmap(nullptr, slots * slot_bytes_, PROT_READ | PROT_WRITE,
                        MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    GAUSS_CHECK_MSG(base != MAP_FAILED,
                    "ShardedBufferPool: cannot map frame slots");
    shard.chunks.push_back({static_cast<uint8_t*>(base), slots});
    // Reversed, so slots are taken in address order.
    for (size_t i = slots; i-- > 0;) {
      shard.free_slots.push_back(static_cast<uint8_t*>(base) +
                                 i * slot_bytes_);
    }
  }
  // The slot is overwritten at once, so it is not zero-filled first.
  frame.owned = shard.free_slots.back();
  shard.free_slots.pop_back();
  if (copy) std::memcpy(frame.owned, frame.data, device_->page_size());
  frame.data = frame.owned;
}

PageRef ShardedBufferPool::Pin(Frame& frame) {
  frame.pins.fetch_add(1, std::memory_order_relaxed);
  // A read ref to a borrowed frame points into the device: PageRef's
  // mutable_data() is for FetchMutable refs only, which always own.
  return PageRef(const_cast<uint8_t*>(frame.data), &frame.pins, &frame.marks);
}

PageRef ShardedBufferPool::Fetch(PageId id) {
  return PinLoaded(ShardFor(id), id);
}

PageRef ShardedBufferPool::FetchMutable(PageId id) {
  Shard& shard = ShardFor(id);
  // The loaded ref keeps the frame resident until the writable one is made.
  const PageRef loaded = PinLoaded(shard, id);
  std::lock_guard<Latch> lock(shard.latch);
  Frame& frame = shard.frames.find(id)->second;
  OwnLocked(shard, frame, /*copy=*/true);
  frame.dirty = true;
  ClearMarksLocked(shard, frame);
  return Pin(frame);
}

void ShardedBufferPool::WritePage(PageId id, const void* data) {
  Shard& shard = ShardFor(id);
  std::unique_lock<Latch> lock(shard.latch);
  auto it = shard.frames.find(id);
  Frame* frame;
  if (it == shard.frames.end()) {
    frame = &InstallLocked(shard, id);
  } else {
    frame = &it->second;
    if (frame->loading.load(std::memory_order_acquire) != 0) {
      // The read in flight must not land on this write: wait for it.
      frame->pins.fetch_add(1, std::memory_order_relaxed);
      lock.unlock();
      WaitLoaded(*frame);
      lock.lock();
      frame->pins.fetch_sub(1, std::memory_order_release);
    }
    TouchLocked(shard, *frame);
  }
  OwnLocked(shard, *frame, /*copy=*/false);
  std::memcpy(frame->owned, data, device_->page_size());
  frame->dirty = true;
  ClearMarksLocked(shard, *frame);
}

void ShardedBufferPool::FlushAll() {
  for (Shard& shard : shards_) {
    std::lock_guard<Latch> lock(shard.latch);
    for (auto& [id, frame] : shard.frames) {
      if (frame.dirty) {
        device_->Write(id, frame.data);
        frame.dirty = false;
        physical_writes_.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
}

void ShardedBufferPool::Clear() {
  // One pass per stripe under its latch, so a frame written between a
  // flush and the drop cannot be dropped dirty.
  for (Shard& shard : shards_) {
    std::lock_guard<Latch> lock(shard.latch);
    for (auto it = shard.frames.begin(); it != shard.frames.end();) {
      Frame& frame = it->second;
      if (frame.dirty) {
        device_->Write(it->first, frame.data);
        frame.dirty = false;
        physical_writes_.fetch_add(1, std::memory_order_relaxed);
      }
      if (frame.pins.load(std::memory_order_acquire) == 0) {
        ReleaseSlotLocked(shard, frame);
        (frame.on_kept_list ? shard.kept : shard.unkept).Unlink(&frame);
        it = shard.frames.erase(it);
      } else {
        ++it;
      }
    }
  }
}

IoStats ShardedBufferPool::stats() const {
  IoStats s;
  s.logical_reads = logical_reads_.load(std::memory_order_relaxed);
  s.physical_reads = physical_reads_.load(std::memory_order_relaxed);
  s.physical_writes = physical_writes_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  return s;
}

void ShardedBufferPool::ResetStats() {
  logical_reads_.store(0, std::memory_order_relaxed);
  physical_reads_.store(0, std::memory_order_relaxed);
  physical_writes_.store(0, std::memory_order_relaxed);
  evictions_.store(0, std::memory_order_relaxed);
}

size_t ShardedBufferPool::resident_pages() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<Latch> lock(shard.latch);
    total += shard.frames.size();
  }
  return total;
}

size_t ShardedBufferPool::mapped_slots() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<Latch> lock(shard.latch);
    for (const Chunk& chunk : shard.chunks) total += chunk.slots;
  }
  return total;
}

}  // namespace gauss
