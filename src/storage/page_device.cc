#include "storage/page_device.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

#include <bit>
#include <cerrno>
#include <cstring>

#include "common/macros.h"

namespace gauss {

namespace {

size_t OsPageSize() {
  static const size_t size = static_cast<size_t>(::sysconf(_SC_PAGESIZE));
  return size;
}

bool AllZero(const uint8_t* p, size_t n) {
  return p[0] == 0 && std::memcmp(p, p + 1, n - 1) == 0;
}

// Makes whole OS pages of an anonymous mapping read zero and hold no
// memory: madvise(MADV_DONTNEED), or a zero fill where the kernel refuses.
void ReleaseOsPages(uint8_t* p, size_t bytes) {
  if (::madvise(p, bytes, MADV_DONTNEED) != 0) std::memset(p, 0, bytes);
}

}  // namespace

// -------------------------------------------------------------- free set --

void PageDevice::Recycle(const std::vector<PageId>& ids) {
  const size_t count = PageCount();
  std::lock_guard<std::mutex> lock(free_mu_);
  for (PageId id : ids) {
    GAUSS_CHECK(id < count);
    GAUSS_CHECK_MSG(free_.insert(id).second, "page recycled twice");
    Discard(id);
  }
}

size_t PageDevice::FreePageCount() const {
  std::lock_guard<std::mutex> lock(free_mu_);
  return free_.size();
}

bool PageDevice::IsFree(PageId id) const {
  std::lock_guard<std::mutex> lock(free_mu_);
  return free_.count(id) != 0;
}

bool PageDevice::TakeRecycled(PageId* id) {
  std::lock_guard<std::mutex> lock(free_mu_);
  if (free_.empty()) return false;
  *id = *free_.begin();
  free_.erase(free_.begin());
  return true;
}

// ----------------------------------------------------------- in-memory -----

InMemoryPageDevice::InMemoryPageDevice(uint32_t page_size)
    : PageDevice(page_size) {}

InMemoryPageDevice::~InMemoryPageDevice() {
  for (size_t s = 0; s < kMaxSegments; ++s) {
    if (uint8_t* base = segments_[s].load(std::memory_order_relaxed)) {
      ::munmap(base, (kFirstSegmentPages << s) * page_size());
    }
  }
}

// Segment s holds kFirstSegmentPages << s pages starting at page id
// kFirstSegmentPages * ((1 << s) - 1).
void InMemoryPageDevice::Locate(PageId id, size_t* segment,
                                size_t* offset_pages) {
  const size_t block = static_cast<size_t>(id) / kFirstSegmentPages + 1;
  const size_t s = static_cast<size_t>(std::bit_width(block)) - 1;
  *segment = s;
  *offset_pages =
      static_cast<size_t>(id) - kFirstSegmentPages * ((size_t{1} << s) - 1);
}

uint8_t* InMemoryPageDevice::PageAddress(PageId id) const {
  size_t segment = 0, offset = 0;
  Locate(id, &segment, &offset);
  uint8_t* base = segments_[segment].load(std::memory_order_acquire);
  GAUSS_CHECK(base != nullptr);
  return base + offset * page_size();
}

PageId InMemoryPageDevice::Allocate() {
  PageId recycled = 0;
  if (TakeRecycled(&recycled)) return recycled;
  std::lock_guard<std::mutex> lock(alloc_mu_);
  const size_t id = page_count_.load(std::memory_order_relaxed);
  size_t segment = 0, offset = 0;
  Locate(static_cast<PageId>(id), &segment, &offset);
  GAUSS_CHECK(segment < kMaxSegments);
  if (segments_[segment].load(std::memory_order_relaxed) == nullptr) {
    const size_t bytes = (kFirstSegmentPages << segment) * page_size();
    void* base = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                        MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    GAUSS_CHECK_MSG(base != MAP_FAILED, "InMemoryPageDevice: mmap failed");
    segments_[segment].store(static_cast<uint8_t*>(base),
                             std::memory_order_release);
  }
  page_count_.store(id + 1, std::memory_order_release);
  return static_cast<PageId>(id);
}

void InMemoryPageDevice::Read(PageId id, void* out) const {
  GAUSS_CHECK(id < page_count_.load(std::memory_order_acquire));
  std::memcpy(out, PageAddress(id), page_size());
}

void InMemoryPageDevice::Write(PageId id, const void* data) {
  GAUSS_CHECK(id < page_count_.load(std::memory_order_acquire));
  uint8_t* dst = PageAddress(id);
  const auto* src = static_cast<const uint8_t*>(data);
  const size_t os_page = OsPageSize();
  if (page_size() % os_page != 0) {
    std::memcpy(dst, src, page_size());
    return;
  }
  // The destination is not read: a read of an unbacked OS page would map
  // the kernel's zero page into it. An unbacked one stays untouched by the
  // madvise.
  for (size_t at = 0; at < page_size(); at += os_page) {
    if (AllZero(src + at, os_page)) {
      ReleaseOsPages(dst + at, os_page);
    } else {
      std::memcpy(dst + at, src + at, os_page);
    }
  }
}

void InMemoryPageDevice::Discard(PageId id) {
  if (page_size() % OsPageSize() == 0) {
    ReleaseOsPages(PageAddress(id), page_size());
  } else {
    std::memset(PageAddress(id), 0, page_size());
  }
}

const uint8_t* InMemoryPageDevice::StablePage(PageId id) const {
  GAUSS_CHECK(id < page_count_.load(std::memory_order_acquire));
  if (page_size() % sizeof(uint64_t) != 0) return nullptr;
  return PageAddress(id);
}

size_t InMemoryPageDevice::PageCount() const {
  return page_count_.load(std::memory_order_acquire);
}

// ---------------------------------------------------------- file-backed ----

namespace {

// Positioned full-buffer read/write, retrying short transfers and EINTR
// (a signal without SA_RESTART — profilers, application timers — must not
// abort the serving process over a healthy descriptor).
void PreadFully(int fd, void* out, size_t count, off_t offset) {
  uint8_t* dst = static_cast<uint8_t*>(out);
  size_t done = 0;
  while (done < count) {
    const ssize_t n = ::pread(fd, dst + done, count - done,
                              offset + static_cast<off_t>(done));
    if (n < 0 && errno == EINTR) continue;
    GAUSS_CHECK(n > 0);
    done += static_cast<size_t>(n);
  }
}

void PwriteFully(int fd, const void* data, size_t count, off_t offset) {
  const uint8_t* src = static_cast<const uint8_t*>(data);
  size_t done = 0;
  while (done < count) {
    const ssize_t n = ::pwrite(fd, src + done, count - done,
                               offset + static_cast<off_t>(done));
    if (n < 0 && errno == EINTR) continue;
    GAUSS_CHECK(n > 0);
    done += static_cast<size_t>(n);
  }
}

}  // namespace

FilePageDevice::FilePageDevice(const std::string& path, uint32_t page_size,
                               bool truncate)
    : PageDevice(page_size) {
  int flags = O_RDWR | O_CREAT;
  if (truncate) flags |= O_TRUNC;
  fd_ = ::open(path.c_str(), flags, 0644);
  GAUSS_CHECK_MSG(fd_ >= 0, path.c_str());
  const off_t size = ::lseek(fd_, 0, SEEK_END);
  GAUSS_CHECK(size >= 0);
  GAUSS_CHECK_MSG(static_cast<size_t>(size) % page_size == 0,
                  "file size is not a multiple of the page size");
  page_count_.store(static_cast<size_t>(size) / page_size,
                    std::memory_order_relaxed);
}

std::unique_ptr<FilePageDevice> FilePageDevice::TryOpen(const std::string& path,
                                                        uint32_t page_size,
                                                        std::string* error) {
  if (page_size == 0) {
    if (error != nullptr) {
      *error = path + ": page size 0 is invalid";
    }
    return nullptr;
  }
  const int fd = ::open(path.c_str(), O_RDWR);
  if (fd < 0) {
    if (error != nullptr) {
      *error = path + ": " + std::strerror(errno);
    }
    return nullptr;
  }
  const off_t size = ::lseek(fd, 0, SEEK_END);
  if (size < 0 || static_cast<size_t>(size) % page_size != 0) {
    if (error != nullptr) {
      *error = path + ": size " + std::to_string(size) +
               " is not a multiple of the page size " +
               std::to_string(page_size) + " (truncated or foreign file)";
    }
    ::close(fd);
    return nullptr;
  }
  auto device = std::unique_ptr<FilePageDevice>(
      new FilePageDevice(fd, page_size, static_cast<size_t>(size) / page_size));
  return device;
}

FilePageDevice::FilePageDevice(int fd, uint32_t page_size, size_t page_count)
    : PageDevice(page_size), fd_(fd) {
  page_count_.store(page_count, std::memory_order_relaxed);
}

FilePageDevice::~FilePageDevice() {
  if (fd_ >= 0) ::close(fd_);
}

PageId FilePageDevice::Allocate() {
  PageId recycled = 0;
  if (TakeRecycled(&recycled)) {
    const std::vector<uint8_t> zeros(page_size(), 0);
    PwriteFully(fd_, zeros.data(), page_size(),
                static_cast<off_t>(recycled) * page_size());
    return recycled;
  }
  // An appended page is a hole of the extended file: it reads back as
  // zeros, and the caller's own write of it is the only one.
  std::lock_guard<std::mutex> lock(alloc_mu_);
  const size_t id = page_count_.load(std::memory_order_relaxed);
  const off_t end = static_cast<off_t>(id + 1) * page_size();
  int rc = 0;
  do {
    rc = ::ftruncate(fd_, end);
  } while (rc != 0 && errno == EINTR);
  GAUSS_CHECK_MSG(rc == 0, "FilePageDevice: cannot extend the file");
  page_count_.store(id + 1, std::memory_order_release);
  return static_cast<PageId>(id);
}

void FilePageDevice::Read(PageId id, void* out) const {
  GAUSS_CHECK(id < page_count_.load(std::memory_order_acquire));
  PreadFully(fd_, out, page_size(), static_cast<off_t>(id) * page_size());
}

void FilePageDevice::Write(PageId id, const void* data) {
  GAUSS_CHECK(id < page_count_.load(std::memory_order_acquire));
  PwriteFully(fd_, data, page_size(), static_cast<off_t>(id) * page_size());
}

size_t FilePageDevice::PageCount() const {
  return page_count_.load(std::memory_order_acquire);
}

void FilePageDevice::Sync() { GAUSS_CHECK(::fdatasync(fd_) == 0); }

}  // namespace gauss
