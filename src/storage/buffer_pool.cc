#include "storage/buffer_pool.h"

#include <cstring>

#include "common/macros.h"

namespace gauss {

BufferPool::BufferPool(PageDevice* device, size_t capacity_pages)
    : device_(device), capacity_(capacity_pages) {
  GAUSS_CHECK(device != nullptr);
  GAUSS_CHECK(capacity_pages > 0);
}

void BufferPool::Touch(PageId id, Frame& frame) {
  lru_.erase(frame.lru_pos);
  lru_.push_front(id);
  frame.lru_pos = lru_.begin();
}

void BufferPool::EvictIfFull() {
  // Walk from the LRU end towards the front, evicting unpinned frames until
  // strictly below capacity — this also reclaims overshoot from earlier
  // all-pinned growth once those pins are released.
  auto it = lru_.rbegin();
  while (frames_.size() >= capacity_ && it != lru_.rend()) {
    auto frame_it = frames_.find(*it);
    GAUSS_CHECK(frame_it != frames_.end());
    Frame& frame = frame_it->second;
    if (frame.pins.load(std::memory_order_acquire) != 0) {
      ++it;  // pinned frames must stay resident
      continue;
    }
    if (frame.dirty) {
      device_->Write(frame_it->first, frame.data.get());
      ++stats_.physical_writes;
    }
    it = std::make_reverse_iterator(lru_.erase(frame.lru_pos));
    frames_.erase(frame_it);
    ++stats_.evictions;
  }
  // Loop exhausted with every frame pinned: grow past capacity instead of
  // failing.
}

BufferPool::Frame& BufferPool::GetFrame(PageId id) {
  ++stats_.logical_reads;
  auto it = frames_.find(id);
  if (it != frames_.end()) {
    Touch(id, it->second);
    return it->second;
  }
  EvictIfFull();
  auto [pos, inserted] = frames_.try_emplace(id);
  GAUSS_CHECK(inserted);
  Frame& frame = pos->second;
  frame.data = std::make_unique<uint8_t[]>(device_->page_size());
  device_->Read(id, frame.data.get());
  ++stats_.physical_reads;
  lru_.push_front(id);
  frame.lru_pos = lru_.begin();
  return frame;
}

PageRef BufferPool::Fetch(PageId id) {
  Frame& frame = GetFrame(id);
  frame.pins.fetch_add(1, std::memory_order_relaxed);
  return PageRef(frame.data.get(), &frame.pins, &frame.verified);
}

PageRef BufferPool::FetchMutable(PageId id) {
  Frame& frame = GetFrame(id);
  frame.dirty = true;
  frame.verified.store(false, std::memory_order_relaxed);
  frame.pins.fetch_add(1, std::memory_order_relaxed);
  return PageRef(frame.data.get(), &frame.pins, &frame.verified);
}

void BufferPool::WritePage(PageId id, const void* data) {
  // A full-page write does not need to read the old contents from the
  // device; install the new bytes directly.
  auto it = frames_.find(id);
  if (it == frames_.end()) {
    EvictIfFull();
    it = frames_.try_emplace(id).first;
    Frame& frame = it->second;
    frame.data = std::make_unique<uint8_t[]>(device_->page_size());
    lru_.push_front(id);
    frame.lru_pos = lru_.begin();
  } else {
    Touch(id, it->second);
  }
  std::memcpy(it->second.data.get(), data, device_->page_size());
  it->second.dirty = true;
  it->second.verified.store(false, std::memory_order_relaxed);
}

void BufferPool::FlushAll() {
  for (auto& [id, frame] : frames_) {
    if (frame.dirty) {
      device_->Write(id, frame.data.get());
      frame.dirty = false;
      ++stats_.physical_writes;
    }
  }
}

void BufferPool::Clear() {
  FlushAll();
  // Pinned frames survive a Clear: dropping them would dangle live refs.
  for (auto it = frames_.begin(); it != frames_.end();) {
    if (it->second.pins.load(std::memory_order_acquire) == 0) {
      lru_.erase(it->second.lru_pos);
      it = frames_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace gauss
