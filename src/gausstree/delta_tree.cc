#include "gausstree/delta_tree.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/macros.h"

namespace gauss {

DeltaTree::DeltaTree(size_t dim, size_t capacity)
    : dim_(dim),
      capacity_(capacity),
      ids_(capacity),
      planes_(2 * dim * capacity, 0.0),
      sigma_range_(2 * dim) {
  GAUSS_CHECK(capacity_ > 0);
  for (size_t d = 0; d < dim_; ++d) {
    sigma_range_[2 * d].store(std::numeric_limits<double>::infinity());
    sigma_range_[2 * d + 1].store(-std::numeric_limits<double>::infinity());
  }
}

bool DeltaTree::Append(const Pfv& pfv) {
  GAUSS_CHECK(pfv.dim() == dim_);
  std::lock_guard<std::mutex> lock(writer_mu_);
  const size_t n = size_.load(std::memory_order_relaxed);
  if (n >= capacity_) return false;
  // Slot n and the widened sigma range must be complete before the
  // release-store publishes them to concurrent scanners (see the class
  // comment).
  ids_[n] = pfv.id;
  for (size_t d = 0; d < dim_; ++d) {
    const double sigma = pfv.sigma[d];
    planes_[d * capacity_ + n] = pfv.mu[d];
    planes_[(dim_ + d) * capacity_ + n] = sigma;
    std::atomic<double>& lo = sigma_range_[2 * d];
    std::atomic<double>& hi = sigma_range_[2 * d + 1];
    lo.store(std::min(lo.load(std::memory_order_relaxed), sigma),
             std::memory_order_relaxed);
    hi.store(std::max(hi.load(std::memory_order_relaxed), sigma),
             std::memory_order_relaxed);
  }
  size_.store(n + 1, std::memory_order_release);
  return true;
}

Pfv DeltaTree::Object(size_t i) const {
  std::vector<double> mu(dim_), sigma(dim_);
  for (size_t d = 0; d < dim_; ++d) {
    mu[d] = planes_[d * capacity_ + i];
    sigma[d] = planes_[(dim_ + d) * capacity_ + i];
  }
  return Pfv(ids_[i], std::move(mu), std::move(sigma));
}

}  // namespace gauss
