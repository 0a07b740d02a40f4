#include "storage/sharded_buffer_pool.h"

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

}  // namespace

ShardedBufferPool::ShardedBufferPool(PageDevice* device, size_t capacity_pages,
                                     size_t num_shards)
    : device_(device),
      capacity_(capacity_pages),
      shard_mask_(0),
      shards_(PickShardCount(capacity_pages, num_shards)) {
  GAUSS_CHECK(device != nullptr);
  GAUSS_CHECK(capacity_pages > 0);
  shard_mask_ = shards_.size() - 1;
  // Split the budget evenly; remainder pages go to the first shards so the
  // total capacity is exact.
  const size_t base = capacity_ / shards_.size();
  const size_t extra = capacity_ % shards_.size();
  for (size_t i = 0; i < shards_.size(); ++i) {
    shards_[i].capacity = base + (i < extra ? 1 : 0);
  }
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
      device_->Write(frame_it->first, frame.data.get());
      physical_writes_.fetch_add(1, std::memory_order_relaxed);
    }
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
    shard.lru.erase(it->second.lru_pos);
    shard.lru.push_front(id);
    it->second.lru_pos = shard.lru.begin();
    return it->second;
  }
  EvictIfFullLocked(shard);
  auto [pos, inserted] = shard.frames.try_emplace(id);
  GAUSS_CHECK(inserted);
  Frame& frame = pos->second;
  frame.data = std::make_unique<uint8_t[]>(device_->page_size());
  device_->Read(id, frame.data.get());
  physical_reads_.fetch_add(1, std::memory_order_relaxed);
  shard.lru.push_front(id);
  frame.lru_pos = shard.lru.begin();
  return frame;
}

PageRef ShardedBufferPool::Fetch(PageId id) {
  Shard& shard = ShardFor(id);
  std::lock_guard<std::mutex> lock(shard.latch);
  Frame& frame = GetFrameLocked(shard, id);
  frame.pins.fetch_add(1, std::memory_order_relaxed);
  return PageRef(frame.data.get(), &frame.pins, &frame.verified);
}

PageRef ShardedBufferPool::FetchMutable(PageId id) {
  Shard& shard = ShardFor(id);
  std::lock_guard<std::mutex> lock(shard.latch);
  Frame& frame = GetFrameLocked(shard, id);
  frame.dirty = true;
  frame.verified.store(false, std::memory_order_relaxed);
  frame.pins.fetch_add(1, std::memory_order_relaxed);
  return PageRef(frame.data.get(), &frame.pins, &frame.verified);
}

void ShardedBufferPool::WritePage(PageId id, const void* data) {
  Shard& shard = ShardFor(id);
  std::lock_guard<std::mutex> lock(shard.latch);
  auto it = shard.frames.find(id);
  if (it == shard.frames.end()) {
    EvictIfFullLocked(shard);
    it = shard.frames.try_emplace(id).first;
    Frame& frame = it->second;
    frame.data = std::make_unique<uint8_t[]>(device_->page_size());
    shard.lru.push_front(id);
    frame.lru_pos = shard.lru.begin();
  } else {
    shard.lru.erase(it->second.lru_pos);
    shard.lru.push_front(id);
    it->second.lru_pos = shard.lru.begin();
  }
  std::memcpy(it->second.data.get(), data, device_->page_size());
  it->second.dirty = true;
  it->second.verified.store(false, std::memory_order_relaxed);
}

void ShardedBufferPool::FlushAll() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.latch);
    for (auto& [id, frame] : shard.frames) {
      if (frame.dirty) {
        device_->Write(id, frame.data.get());
        frame.dirty = false;
        physical_writes_.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
}

void ShardedBufferPool::Clear() {
  FlushAll();
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.latch);
    for (auto it = shard.frames.begin(); it != shard.frames.end();) {
      if (it->second.pins.load(std::memory_order_acquire) == 0) {
        shard.lru.erase(it->second.lru_pos);
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

}  // namespace gauss
