#include "gausstree/delta_tree.h"

#include "common/macros.h"

namespace gauss {

DeltaTree::DeltaTree(size_t dim, size_t capacity)
    : dim_(dim),
      capacity_(capacity),
      slots_(capacity),
      planes_(2 * dim * capacity, 0.0) {
  GAUSS_CHECK(capacity_ > 0);
}

bool DeltaTree::Append(const Pfv& pfv) {
  GAUSS_CHECK(pfv.dim() == dim_);
  std::lock_guard<std::mutex> lock(writer_mu_);
  const size_t n = size_.load(std::memory_order_relaxed);
  if (n >= capacity_) return false;
  slots_[n] = pfv;
  // The SoA mirror must be complete before the release-store publishes slot
  // n to concurrent scanners (see mu_planes() contract).
  for (size_t d = 0; d < dim_; ++d) {
    planes_[d * capacity_ + n] = pfv.mu[d];
    planes_[(dim_ + d) * capacity_ + n] = pfv.sigma[d];
  }
  size_.store(n + 1, std::memory_order_release);
  return true;
}

}  // namespace gauss
