#ifndef GAUSS_STORAGE_PAGE_DEVICE_H_
#define GAUSS_STORAGE_PAGE_DEVICE_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "storage/page.h"

namespace gauss {

// Abstraction of a block device holding fixed-size pages. Implementations
// must be deterministic; all I/O accounting happens in the page-cache layer
// above, not here.
//
// Thread-safety contract: `Read` must be safe to call concurrently with
// other reads — the ShardedBufferPool issues parallel reads from different
// shards. `Allocate` and `Write` may run concurrently with reads of
// *other* pages: the live-ingest merge thread writes a fresh tree image
// onto a device whose other pages the previous epoch is still serving
// reads from. Writes of different pages may run concurrently with each
// other (a bulk load writes its leaves on several threads, and a sharded
// build loads the shard trees of one device side by side), but a given
// page's bytes may not be written and read, or written twice, concurrently
// (the merge commits a page only before any reader can learn its id).
// FilePageDevice meets the contract with positioned pread/pwrite over a raw
// descriptor plus an acquire/release page count; InMemoryPageDevice with a
// fixed directory of geometrically-growing segments, so a published page's
// address never moves while an append installs new segments.
//
// Stable pages: a device that keeps every page at one address for its whole
// lifetime may lend that memory through StablePage(), and the buffer pool
// then points a clean frame at it instead of copying the page
// (sharded_buffer_pool.h). Whoever holds such a pointer sees every later
// Write of the page, so the rule above covers it: a page is not written
// while anyone reads it.
//
// Recycling: Recycle() hands pages back for Allocate() to reuse. Only the
// device's one writer may recycle, and only pages nothing can read any
// more: no tree reaches them and no cache holds a frame of them (a lent
// StablePage included). The live-ingest merge recycles a retired image
// once its epoch — the last reader of those pages, with every cache over
// them — is destroyed (api/serving_engine.h). The free set lives in memory
// only; a live engine derives it again from what the headers reach.
//
// Residency: an in-memory page takes memory only where it holds bytes. The
// device keeps a page in OS pages (sysconf(_SC_PAGESIZE)), and Write leaves
// an OS page that would hold only zeros unbacked. A node page is filled
// from the front, so a half-full 8 KiB leaf takes one 4 KiB OS page, not
// two. With transparent huge pages in `always` mode the kernel may back a
// segment with 2 MiB pages, which an unwritten 4 KiB tail does not split,
// so the saving can shrink; the device asks for no huge pages itself.
// Recycle gives a free in-memory page's memory back at once, so a live
// device's retired image leaves the process with its epoch.
class PageDevice {
 public:
  explicit PageDevice(uint32_t page_size) : page_size_(page_size) {}
  virtual ~PageDevice() = default;

  PageDevice(const PageDevice&) = delete;
  PageDevice& operator=(const PageDevice&) = delete;

  // Returns a zero-filled page: the lowest recycled id, else a new page
  // appended at the end.
  virtual PageId Allocate() = 0;

  // Copies the page contents into `out` (page_size() bytes).
  virtual void Read(PageId id, void* out) const = 0;

  // Overwrites the page with `data` (page_size() bytes).
  virtual void Write(PageId id, const void* data) = 0;

  // Number of allocated pages (recycled ones included).
  virtual size_t PageCount() const = 0;

  // Makes durable every page written so far. A no-op unless the device
  // outlives the process.
  virtual void Sync() {}

  // Adds `ids` (allocated pages nothing reads any more; see the class
  // comment) to the free set, after Discard() has had each.
  void Recycle(const std::vector<PageId>& ids);

  // Recycled pages not yet reused.
  size_t FreePageCount() const;

  // The page's own bytes (page_size() of them), valid and at the same
  // address until the device is destroyed; nullptr when the device keeps no
  // such memory (a file) and the page must be Read into a buffer.
  virtual const uint8_t* StablePage(PageId id) const {
    (void)id;
    return nullptr;
  }

  uint32_t page_size() const { return page_size_; }

 protected:
  // Removes the lowest recycled id from the free set into `*id`; false
  // when the set is empty. Allocate() calls it first.
  bool TakeRecycled(PageId* id);

  // Recycle() calls it for each recycled page before the page enters the
  // free set. The default keeps the page as it is; Allocate() zeroes it
  // when it hands it out again.
  virtual void Discard(PageId id) { (void)id; }

 private:
  uint32_t page_size_;
  mutable std::mutex free_mu_;
  std::set<PageId> free_;  // guarded by free_mu_
};

// Heap-backed device; the default for experiments (the disk model converts
// page-access counts into simulated elapsed I/O, so a RAM-backed device keeps
// measurements noise-free while the access accounting stays honest).
class InMemoryPageDevice : public PageDevice {
 public:
  explicit InMemoryPageDevice(uint32_t page_size = kDefaultPageSize);
  ~InMemoryPageDevice() override;

  // A recycled page was zeroed by Discard, and an appended one reads zeros
  // unbacked: neither is written.
  PageId Allocate() override;
  void Read(PageId id, void* out) const override;
  // Copies one OS page at a time. An OS page whose new bytes are all zero
  // is not copied but handed to madvise(MADV_DONTNEED): it reads zeros and
  // holds no memory, whatever it held before; one never written stays
  // untouched. A page size that is not a multiple of the OS page is copied
  // whole.
  void Write(PageId id, const void* data) override;
  size_t PageCount() const override;
  // The page's address in its segment, when the page size is a multiple of
  // 8 (every lent page is then as aligned as the doubles on it).
  const uint8_t* StablePage(PageId id) const override;

 protected:
  // madvise(MADV_DONTNEED): the page's OS pages leave the process and read
  // zeros at the same address. A page size that is not a multiple of the
  // OS page, or a refused madvise, zeroes the page in place instead.
  void Discard(PageId id) override;

 private:
  // Pages live in segments of geometrically growing size (segment s holds
  // kFirstSegmentPages << s pages), each one anonymous mapping — so an OS
  // page is resident once written with bytes that are not all zero, not
  // once its segment exists — addressed through a fixed-capacity directory
  // of atomic pointers. Appending installs a new segment with a release
  // store; readers locate their page through an acquire load, so a page's
  // address is stable from the moment its id is published — no vector
  // regrowth ever races a concurrent Read.
  static constexpr size_t kFirstSegmentPages = 64;
  static constexpr size_t kMaxSegments = 48;

  static void Locate(PageId id, size_t* segment, size_t* offset_pages);
  uint8_t* PageAddress(PageId id) const;

  std::mutex alloc_mu_;  // serializes Allocate's append
  std::atomic<size_t> page_count_{0};
  std::array<std::atomic<uint8_t*>, kMaxSegments> segments_{};
};

// File-backed device for persistence tests and on-disk operation. Built on
// positioned pread/pwrite over a raw descriptor: concurrent reads proceed in
// parallel without shared seek state. Every FilePageDevice owns its own
// descriptor, so a multi-device database (one device per shard — GaussDb's
// directory layout) reads all its files genuinely in parallel.
class FilePageDevice : public PageDevice {
 public:
  // Opens (or creates) the backing file. `truncate` discards existing
  // content. Aborts on I/O failure (storage corruption is not recoverable).
  FilePageDevice(const std::string& path, uint32_t page_size = kDefaultPageSize,
                 bool truncate = true);
  ~FilePageDevice() override;

  // Attaches to an *existing* file without creating it, returning nullptr
  // (with a human-readable reason in `*error`) instead of aborting when the
  // file is missing, unreadable, or truncated to a non-page-multiple size.
  // This is the recoverable-open primitive underneath GaussDb's typed
  // OpenFile()/OpenDirectory() error paths — a missing shard file is a
  // caller-reportable condition, not a process-fatal invariant violation.
  static std::unique_ptr<FilePageDevice> TryOpen(
      const std::string& path, uint32_t page_size = kDefaultPageSize,
      std::string* error = nullptr);

  // A recycled page is zeroed with one write; an appended one costs no
  // write at all: the file is extended (ftruncate) and the new page reads
  // back as zeros until the caller writes it.
  PageId Allocate() override;
  void Read(PageId id, void* out) const override;
  void Write(PageId id, const void* data) override;
  size_t PageCount() const override;
  // fdatasync.
  void Sync() override;

 private:
  // Adopts an already-opened descriptor (TryOpen's success path).
  FilePageDevice(int fd, uint32_t page_size, size_t page_count);

  int fd_ = -1;
  std::mutex alloc_mu_;              // serializes Allocate's append
  std::atomic<size_t> page_count_{0};
};

}  // namespace gauss

#endif  // GAUSS_STORAGE_PAGE_DEVICE_H_
