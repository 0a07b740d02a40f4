#ifndef GAUSS_GAUSSTREE_DELTA_TREE_H_
#define GAUSS_GAUSSTREE_DELTA_TREE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

#include "pfv/pfv.h"

namespace gauss {

// ================================ DeltaTree =================================
//
// The mutable half of live ingest (see src/gausstree/README.md): a fixed-
// capacity, append-only buffer of pfvs enrolled since the current epoch's
// base image was built. It deliberately is NOT a tree: DeltaBackend scores
// it with a bound-pruned linear scan (one cheap upper bound per object from
// the per-dimension sigma range kept here, exact densities only where the
// bound cannot rule mass out), which needs no pages and lets the delta
// report *degenerate* denominator bounds (lo == hi) to the shard
// coordinator, keeping every combined MLIQ/TIQ answer exact without ever
// being asked to refine.
//
// Storage is one id array plus SoA planes, the layout the batch kernels
// read: no pfv is kept whole.
//
// Concurrency contract: one writer at a time appends (Append takes the
// writer mutex); any number of readers concurrently scan the prefix
// [0, size()). The arrays are sized to capacity at construction and never
// reallocate, and Append writes a slot's id, plane elements and the sigma
// range BEFORE the release-store of size_, so an acquire-load of size()
// licenses plain reads of every slot below it and a sigma range that covers
// them (the range only widens, so a later append can only loosen it). A
// full delta rejects the append — the caller surfaces that as typed
// backpressure (InsertResult::kDeltaFull).
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

  // Object i's id is ids()[i]; `i` must be below a size() observed by this
  // thread.
  const uint64_t* ids() const { return ids_.data(); }

  // SoA planes for the batch kernels (math/kernels.h): dim() mu planes then
  // dim() sigma planes, each plane_stride() doubles, with object i's
  // dimension d at planes[d * plane_stride() + i]; sigma_planes() is
  // mu_planes() + dim() * plane_stride(). The same acquire-load of size()
  // that licenses ids() licenses plane reads below it — and the kernels
  // never read plane elements at or past the n they are given.
  const double* mu_planes() const { return planes_.data(); }
  const double* sigma_planes() const {
    return planes_.data() + dim_ * capacity_;
  }
  size_t plane_stride() const { return capacity_; }

  // Object i gathered from the id array and the planes (off the query path:
  // a merge re-appends the tail that arrived while it ran).
  Pfv Object(size_t i) const;

  // Smallest and largest sigma in dimension d over at least the objects
  // below a size() this thread observed (+inf / -inf before the first
  // append).
  double sigma_min(size_t d) const {
    return sigma_range_[2 * d].load(std::memory_order_relaxed);
  }
  double sigma_max(size_t d) const {
    return sigma_range_[2 * d + 1].load(std::memory_order_relaxed);
  }

  size_t dim() const { return dim_; }
  size_t capacity() const { return capacity_; }

 private:
  const size_t dim_;
  const size_t capacity_;
  std::vector<uint64_t> ids_;   // capacity_; never reallocates
  std::vector<double> planes_;  // 2 * dim_ * capacity_; never reallocates
  // Per dimension: min, max. Written by the writer only, under writer_mu_.
  std::vector<std::atomic<double>> sigma_range_;
  std::mutex writer_mu_;
  std::atomic<size_t> size_{0};
};

}  // namespace gauss

#endif  // GAUSS_GAUSSTREE_DELTA_TREE_H_
