#include "api/partitioner.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>

#include "common/macros.h"
#include "common/mapped_array.h"

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

// An object's key along a cut's axis, with the tie-breakers of the cut's
// strict total order (mu, id, position).
struct CutKey {
  double mu;
  uint64_t id;
  uint32_t position;
};

// The objects a cut reads, by position: a dataset's pfvs.
class DatasetObjects {
 public:
  explicit DatasetObjects(const PfvDataset& dataset) : dataset_(dataset) {}
  size_t size() const { return dataset_.size(); }
  size_t dim() const { return dataset_.dim(); }
  double Mu(uint32_t position, size_t d) const {
    return dataset_[position].mu[d];
  }
  uint64_t Id(uint32_t position) const { return dataset_[position].id; }

 private:
  const PfvDataset& dataset_;
};

// The objects of SoA runs, counted over the runs in order.
class RunObjects {
 public:
  RunObjects(const std::vector<GaussTree::SoaRun>& runs, size_t dim)
      : dim_(dim) {
    size_t n = 0;
    for (const GaussTree::SoaRun& run : runs) n += run.n;
    objects_.reserve(n);
    for (const GaussTree::SoaRun& run : runs) {
      for (size_t j = 0; j < run.n; ++j) {
        objects_.push_back({run.planes + j, run.stride, run.ids[j]});
      }
    }
  }
  size_t size() const { return objects_.size(); }
  size_t dim() const { return dim_; }
  double Mu(uint32_t position, size_t d) const {
    const Object& object = objects_[position];
    return object.mu[d * object.stride];
  }
  uint64_t Id(uint32_t position) const { return objects_[position].id; }

 private:
  struct Object {
    const double* mu;  // axis 0
    size_t stride;
    uint64_t id;
  };
  std::vector<Object> objects_;
  size_t dim_;
};

// Cuts order[begin, end) into `parts` spatial parts, appending each part's
// positions to `out` in shard order. `keys` has room for the range.
template <typename Objects>
void Cut(const Objects& objects, uint32_t* begin, uint32_t* end,
         size_t parts, size_t leaf_capacity, CutKey* keys,
         std::vector<std::vector<uint32_t>>* out) {
  const size_t n = static_cast<size_t>(end - begin);
  if (parts == 1) {
    out->emplace_back(begin, end);
    return;
  }
  const size_t left_parts = parts / 2;
  const size_t m = LeftCount(n, parts, leaf_capacity);
  if (n > 0) {
    // Widest mu axis of this part; ties go to the lowest axis. One pass
    // reads each object's mu once, folding every axis's extremes in
    // object order.
    const size_t dim = objects.dim();
    std::vector<double> lo(dim), hi(dim);
    for (size_t d = 0; d < dim; ++d) lo[d] = hi[d] = objects.Mu(*begin, d);
    for (const uint32_t* it = begin; it != end; ++it) {
      for (size_t d = 0; d < dim; ++d) {
        const double mu = objects.Mu(*it, d);
        lo[d] = std::min(lo[d], mu);
        hi[d] = std::max(hi[d], mu);
      }
    }
    size_t axis = 0;
    double widest = -1.0;
    for (size_t d = 0; d < dim; ++d) {
      if (hi[d] - lo[d] > widest) {
        widest = hi[d] - lo[d];
        axis = d;
      }
    }
    // A strict total order (mu, id, position), so the cut is a pure function
    // of the objects whatever nth_element's internal pivoting. It runs over
    // the extracted keys, each object read once.
    for (size_t i = 0; i < n; ++i) {
      keys[i] = {objects.Mu(begin[i], axis), objects.Id(begin[i]),
                 begin[i]};
    }
    std::nth_element(keys, keys + m, keys + n,
                     [](const CutKey& a, const CutKey& b) {
                       if (a.mu != b.mu) return a.mu < b.mu;
                       if (a.id != b.id) return a.id < b.id;
                       return a.position < b.position;
                     });
    for (size_t i = 0; i < n; ++i) begin[i] = keys[i].position;
  }
  uint32_t* mid = begin + m;
  Cut(objects, begin, mid, left_parts, leaf_capacity, keys, out);
  Cut(objects, mid, end, parts - left_parts, leaf_capacity, keys, out);
}

template <typename Objects>
std::vector<std::vector<uint32_t>> SplitObjects(const Objects& objects,
                                                size_t num_shards,
                                                size_t leaf_capacity) {
  GAUSS_CHECK_MSG(num_shards > 0, "SplitSpatial needs >= 1 shard");
  GAUSS_CHECK_MSG(objects.size() <= std::numeric_limits<uint32_t>::max(),
                  "SplitSpatial cuts with 32-bit positions");
  std::vector<uint32_t> order(objects.size());
  std::iota(order.begin(), order.end(), uint32_t{0});
  MappedArray<CutKey> keys(objects.size());
  std::vector<std::vector<uint32_t>> parts;
  parts.reserve(num_shards);
  Cut(objects, order.data(), order.data() + order.size(), num_shards,
      leaf_capacity, keys.data(), &parts);
  for (std::vector<uint32_t>& part : parts) {
    std::sort(part.begin(), part.end());
  }
  return parts;
}

}  // namespace

std::vector<std::vector<uint32_t>> SplitSpatial(const PfvDataset& dataset,
                                                size_t num_shards,
                                                size_t leaf_capacity) {
  return SplitObjects(DatasetObjects(dataset), num_shards, leaf_capacity);
}

std::vector<std::vector<uint32_t>> SplitSpatial(
    const std::vector<GaussTree::SoaRun>& runs, size_t dim, size_t num_shards,
    size_t leaf_capacity) {
  return SplitObjects(RunObjects(runs, dim), num_shards, leaf_capacity);
}

}  // namespace gauss
