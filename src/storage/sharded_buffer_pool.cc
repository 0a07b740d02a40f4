#include "storage/sharded_buffer_pool.h"

#include <sys/mman.h>

#include <algorithm>
#include <cstring>

#include "common/macros.h"

namespace gauss {

namespace {

size_t PickShardCount(size_t capacity_pages, size_t requested) {
  if (requested != 0) {
    GAUSS_CHECK_MSG((requested & (requested - 1)) == 0,
                    "num_shards must be a power of two");
    GAUSS_CHECK_MSG(requested <= capacity_pages,
                    "num_shards exceeds capacity_pages: every shard needs "
                    "at least one page of budget");
    return requested;
  }
  // Default: 64 shards, shrunk so every shard can cache at least 2 pages.
  size_t shards = 64;
  while (shards > 1 && capacity_pages / shards < 2) shards /= 2;
  return shards;
}

// Most slots one chunk maps: a stripe with a larger budget maps it in
// several chunks, as its frames need them.
constexpr size_t kMaxChunkSlots = 256;

}  // namespace

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

void ShardedBufferPool::EvictIfFullLocked(Shard& shard) {
  // Evict until strictly below capacity so earlier pin-forced overshoot is
  // reclaimed once the pins are gone, not carried forever.
  auto it = shard.lru.rbegin();
  while (shard.frames.size() >= shard.capacity && it != shard.lru.rend()) {
    auto frame_it = shard.frames.find(*it);
    GAUSS_CHECK(frame_it != shard.frames.end());
    Frame& frame = frame_it->second;
    if (frame.pins.load(std::memory_order_acquire) != 0) {
      ++it;  // pinned frames must stay resident
      continue;
    }
    if (frame.dirty) {
      device_->Write(frame_it->first, frame.data);
      physical_writes_.fetch_add(1, std::memory_order_relaxed);
    }
    ReleaseSlotLocked(shard, frame);
    it = std::make_reverse_iterator(shard.lru.erase(frame.lru_pos));
    shard.frames.erase(frame_it);
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
  // Exhausted the LRU with every frame pinned: grow past the shard budget
  // instead of failing.
}

ShardedBufferPool::Frame& ShardedBufferPool::GetFrameLocked(Shard& shard,
                                                            PageId id) {
  logical_reads_.fetch_add(1, std::memory_order_relaxed);
  auto it = shard.frames.find(id);
  if (it != shard.frames.end()) {
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_pos);
    return it->second;
  }
  EvictIfFullLocked(shard);
  auto [pos, inserted] = shard.frames.try_emplace(id);
  GAUSS_CHECK(inserted);
  Frame& frame = pos->second;
  frame.data = device_->StablePage(id);
  if (frame.data == nullptr) {
    OwnLocked(shard, frame, /*copy=*/false);
    device_->Read(id, frame.owned);
  }
  physical_reads_.fetch_add(1, std::memory_order_relaxed);
  shard.lru.push_front(id);
  frame.lru_pos = shard.lru.begin();
  return frame;
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
  return PageRef(const_cast<uint8_t*>(frame.data), &frame.pins,
                 &frame.verified);
}

PageRef ShardedBufferPool::Fetch(PageId id) {
  Shard& shard = ShardFor(id);
  std::lock_guard<std::mutex> lock(shard.latch);
  return Pin(GetFrameLocked(shard, id));
}

PageRef ShardedBufferPool::FetchMutable(PageId id) {
  Shard& shard = ShardFor(id);
  std::lock_guard<std::mutex> lock(shard.latch);
  Frame& frame = GetFrameLocked(shard, id);
  OwnLocked(shard, frame, /*copy=*/true);
  frame.dirty = true;
  frame.verified.store(false, std::memory_order_relaxed);
  return Pin(frame);
}

void ShardedBufferPool::WritePage(PageId id, const void* data) {
  Shard& shard = ShardFor(id);
  std::lock_guard<std::mutex> lock(shard.latch);
  auto it = shard.frames.find(id);
  if (it == shard.frames.end()) {
    EvictIfFullLocked(shard);
    it = shard.frames.try_emplace(id).first;
    shard.lru.push_front(id);
    it->second.lru_pos = shard.lru.begin();
  } else {
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_pos);
  }
  Frame& frame = it->second;
  OwnLocked(shard, frame, /*copy=*/false);
  std::memcpy(frame.owned, data, device_->page_size());
  frame.dirty = true;
  frame.verified.store(false, std::memory_order_relaxed);
}

void ShardedBufferPool::FlushAll() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.latch);
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
    std::lock_guard<std::mutex> lock(shard.latch);
    for (auto it = shard.frames.begin(); it != shard.frames.end();) {
      Frame& frame = it->second;
      if (frame.dirty) {
        device_->Write(it->first, frame.data);
        frame.dirty = false;
        physical_writes_.fetch_add(1, std::memory_order_relaxed);
      }
      if (frame.pins.load(std::memory_order_acquire) == 0) {
        ReleaseSlotLocked(shard, frame);
        shard.lru.erase(frame.lru_pos);
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
    std::lock_guard<std::mutex> lock(shard.latch);
    total += shard.frames.size();
  }
  return total;
}

size_t ShardedBufferPool::mapped_slots() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.latch);
    for (const Chunk& chunk : shard.chunks) total += chunk.slots;
  }
  return total;
}

}  // namespace gauss
