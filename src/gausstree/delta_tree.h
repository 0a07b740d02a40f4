#ifndef GAUSS_GAUSSTREE_DELTA_TREE_H_
#define GAUSS_GAUSSTREE_DELTA_TREE_H_

#include <atomic>
#include <cstddef>
#include <mutex>
#include <vector>

#include "pfv/pfv.h"

namespace gauss {

// ================================ DeltaTree =================================
//
// The mutable half of live ingest (see src/gausstree/README.md): a fixed-
// capacity, append-only buffer of pfvs enrolled since the current epoch's
// base image was built. It deliberately is NOT a tree — at delta sizes
// (thousands of objects) an exact linear scan costs microseconds, needs no
// pages, and lets the delta report *degenerate* denominator bounds
// (lo == hi) to the shard coordinator, which keeps every combined MLIQ/TIQ
// answer exact without ever being asked to refine.
//
// Concurrency contract: one writer at a time appends (Append takes the
// writer mutex); any number of readers concurrently scan the prefix
// [0, size()). The slot vector is sized to capacity at construction and
// never reallocates, and size_ is release-published only after the slot's
// pfv is fully constructed, so an acquire-load of size() licenses plain
// reads of every slot below it. A full delta rejects the append — the
// caller surfaces that as typed backpressure (InsertResult::kDeltaFull).
// ============================================================================
class DeltaTree {
 public:
  DeltaTree(size_t dim, size_t capacity);

  DeltaTree(const DeltaTree&) = delete;
  DeltaTree& operator=(const DeltaTree&) = delete;

  // Appends one pfv; returns false (delta unchanged) when full. The pfv
  // must match dim() and be Valid() — the API layer validates before
  // routing. Thread-safe against concurrent Append and readers.
  bool Append(const Pfv& pfv);

  // Number of readable objects. Acquire-load: slots [0, size()) are safe to
  // read without further synchronization.
  size_t size() const { return size_.load(std::memory_order_acquire); }

  // Slot access; `i` must be below a size() observed by this thread.
  const Pfv& at(size_t i) const { return slots_[i]; }

  // SoA mirror of the slots for the batch kernels (math/kernels.h): dim()
  // mu planes then dim() sigma planes, each plane_stride() doubles, with
  // object i's dimension d at planes[d * plane_stride() + i]. Append fills
  // a slot's plane elements BEFORE the release-store of size_, so the same
  // acquire-load that licenses at(i) licenses plane reads below size() —
  // and the kernels never read plane elements at or past the n they are
  // given.
  const double* mu_planes() const { return planes_.data(); }
  const double* sigma_planes() const {
    return planes_.data() + dim_ * capacity_;
  }
  size_t plane_stride() const { return capacity_; }

  size_t dim() const { return dim_; }
  size_t capacity() const { return capacity_; }

 private:
  const size_t dim_;
  const size_t capacity_;
  std::vector<Pfv> slots_;  // sized to capacity_ once; never reallocates
  std::vector<double> planes_;  // 2 * dim_ * capacity_; never reallocates
  std::mutex writer_mu_;
  std::atomic<size_t> size_{0};
};

}  // namespace gauss

#endif  // GAUSS_GAUSSTREE_DELTA_TREE_H_
