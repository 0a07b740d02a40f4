#ifndef GAUSS_COMMON_MAPPED_ARRAY_H_
#define GAUSS_COMMON_MAPPED_ARRAY_H_

#include <sys/mman.h>
#include <unistd.h>

#include <cstddef>
#include <type_traits>
#include <utility>

#include "common/macros.h"

namespace gauss {

// A fixed-size array of trivial T mapped straight from the kernel and
// unmapped on destruction; it reads zeros until written. The bulk load's
// and the spatial cut's transient buffers come from here. Taken from
// malloc, a freed buffer would raise glibc's dynamic mmap threshold to its
// size, so later frees of up to that size would stay resident (measured
// +2 MiB peak RSS on a 20k gallery with live ingest); and a buffer taken on
// a helper thread would grow that thread's malloc arena, which keeps its
// pages after the free.
template <typename T>
class MappedArray {
  static_assert(std::is_trivial_v<T>);

 public:
  explicit MappedArray(size_t n) : size_(n) {
    if (n == 0) return;
    void* p = ::mmap(nullptr, n * sizeof(T), PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    GAUSS_CHECK_MSG(p != MAP_FAILED, "MappedArray: cannot map memory");
    data_ = static_cast<T*>(p);
  }
  MappedArray(MappedArray&& other) noexcept
      : data_(std::exchange(other.data_, nullptr)),
        size_(std::exchange(other.size_, 0)) {}
  MappedArray& operator=(MappedArray&& other) noexcept {
    if (this != &other) {
      Free();
      data_ = std::exchange(other.data_, nullptr);
      size_ = std::exchange(other.size_, 0);
    }
    return *this;
  }
  ~MappedArray() { Free(); }

  // Hands the OS pages wholly past the first `keep` elements back to the
  // kernel: they take no memory until touched again, and then read zeros.
  void ReleaseTail(size_t keep) {
    const size_t page = static_cast<size_t>(::sysconf(_SC_PAGESIZE));
    const size_t from = (keep * sizeof(T) + page - 1) / page * page;
    const size_t bytes = size_ * sizeof(T);
    if (data_ == nullptr || from >= bytes) return;
    ::madvise(reinterpret_cast<char*>(data_) + from, bytes - from,
              MADV_DONTNEED);
  }

  // Unmaps the array now; it holds nothing afterwards.
  void Free() {
    if (data_ != nullptr) ::munmap(data_, size_ * sizeof(T));
    data_ = nullptr;
    size_ = 0;
  }

  size_t size() const { return size_; }
  T* data() { return data_; }
  const T* data() const { return data_; }
  T& operator[](size_t i) { return data_[i]; }
  const T& operator[](size_t i) const { return data_[i]; }

 private:
  T* data_ = nullptr;
  size_t size_ = 0;
};

}  // namespace gauss

#endif  // GAUSS_COMMON_MAPPED_ARRAY_H_
