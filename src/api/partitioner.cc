#include "api/partitioner.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>

#include "common/macros.h"

namespace gauss {

namespace {

// Leaf block: the largest leaf_capacity * 2^j <= s, or 0 when s < capacity.
size_t LeafBlock(size_t s, size_t leaf_capacity) {
  if (leaf_capacity == 0 || s < leaf_capacity) return 0;
  size_t block = leaf_capacity;
  while (block <= s / 2) block *= 2;
  return block;
}

// Objects the left side of a cut of n objects into `parts` parts takes: the
// equal-count share, snapped to a full leaf block (see partitioner.h).
size_t LeftCount(size_t n, size_t parts, size_t leaf_capacity) {
  const size_t left_parts = parts / 2;
  size_t m = n * left_parts / parts;
  const size_t share = m / left_parts;
  const size_t block = LeafBlock(share, leaf_capacity);
  // share <= block * (C+1) / C, in integers.
  if (block != 0 && share * leaf_capacity <= block * (leaf_capacity + 1)) {
    m = left_parts * block;
  }
  return m;
}

// Cuts order[begin, end) into `parts` spatial parts, appending each part's
// dataset positions to `out` in shard order.
void Cut(const PfvDataset& dataset, std::vector<uint32_t>::iterator begin,
         std::vector<uint32_t>::iterator end, size_t parts,
         size_t leaf_capacity, std::vector<std::vector<uint32_t>>* out) {
  const size_t n = static_cast<size_t>(end - begin);
  if (parts == 1) {
    out->emplace_back(begin, end);
    return;
  }
  const size_t left_parts = parts / 2;
  const size_t m = LeftCount(n, parts, leaf_capacity);
  if (n > 0) {
    // Widest mu axis of this part; ties go to the lowest axis.
    size_t axis = 0;
    double widest = -1.0;
    for (size_t d = 0; d < dataset.dim(); ++d) {
      double lo = dataset[*begin].mu[d];
      double hi = lo;
      for (auto it = begin; it != end; ++it) {
        lo = std::min(lo, dataset[*it].mu[d]);
        hi = std::max(hi, dataset[*it].mu[d]);
      }
      if (hi - lo > widest) {
        widest = hi - lo;
        axis = d;
      }
    }
    // A strict total order (mu, id, position), so the cut is a pure function
    // of the dataset whatever nth_element's internal pivoting.
    std::nth_element(begin, begin + static_cast<std::ptrdiff_t>(m), end,
                     [&](uint32_t a, uint32_t b) {
                       const double ka = dataset[a].mu[axis];
                       const double kb = dataset[b].mu[axis];
                       if (ka != kb) return ka < kb;
                       if (dataset[a].id != dataset[b].id) {
                         return dataset[a].id < dataset[b].id;
                       }
                       return a < b;
                     });
  }
  const auto mid = begin + static_cast<std::ptrdiff_t>(m);
  Cut(dataset, begin, mid, left_parts, leaf_capacity, out);
  Cut(dataset, mid, end, parts - left_parts, leaf_capacity, out);
}

}  // namespace

std::vector<std::vector<uint32_t>> SplitSpatial(const PfvDataset& dataset,
                                                size_t num_shards,
                                                size_t leaf_capacity) {
  GAUSS_CHECK_MSG(num_shards > 0, "SplitSpatial needs >= 1 shard");
  GAUSS_CHECK_MSG(dataset.size() <= std::numeric_limits<uint32_t>::max(),
                  "SplitSpatial cuts with 32-bit positions");
  std::vector<uint32_t> order(dataset.size());
  std::iota(order.begin(), order.end(), uint32_t{0});
  std::vector<std::vector<uint32_t>> parts;
  parts.reserve(num_shards);
  Cut(dataset, order.begin(), order.end(), num_shards, leaf_capacity, &parts);
  for (std::vector<uint32_t>& part : parts) {
    std::sort(part.begin(), part.end());
  }
  return parts;
}

}  // namespace gauss
