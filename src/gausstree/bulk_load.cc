#include <sys/mman.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "gausstree/gauss_tree.h"
#include "math/hull_integral.h"

// Bulk loading (GaussTree::BulkLoad): a top-down recursive median
// partitioning in the 2d-dimensional (mu, sigma) parameter space, choosing
// at every level the axis that minimizes the summed hull integrals of the
// two halves — the same objective the paper's insertion-time split strategy
// optimizes (Section 5.3), applied globally. Compared to one-by-one
// insertion this yields fuller nodes and more selective MBRs in a fraction
// of the build time (bench: ablation_bulkload).
//
// Each tree level is built in two passes:
//  1. Partition. The level's items are gathered once into a flat row-major
//     matrix of split keys and parameter-space extents, and a permutation
//     `order` of their indices is split recursively. The leaf level's items
//     are the caller's pfvs at the given dataset positions, read in place.
//     Every candidate axis reads keys and bounds straight from the matrix;
//     no node or pfv is copied. The two halves of a split are disjoint
//     ranges of `order`, so one half goes to a helper thread while threads
//     remain.
//  2. Materialize. The calling thread walks the same ranges in the order a
//     sequential right-half-first depth-first loader would visit them and
//     creates one node per final range. Page ids are therefore allocated in
//     that fixed order, whatever the thread count. A node is complete once
//     created, so it goes straight to its device page (GtNodeStore::
//     Persist); only its parent entry — child id, count, MBR — stays in
//     memory, as an item of the next level up.
// std::nth_element is deterministic for a given input sequence, and each
// range's input depends only on what happened to that range before, so the
// permutation — and with it the whole device image — does not depend on
// the number of threads.

namespace gauss {

namespace {

// A fixed-size array of trivial T mapped straight from the kernel and
// unmapped on destruction. The level matrix is the largest buffer a build
// allocates (16 MB at 100k objects). Taken from malloc, its free would
// raise glibc's dynamic mmap threshold to its size, so later frees of up
// to that size would stay resident: measured +2 MiB peak RSS on a 20k
// gallery with live ingest.
template <typename T>
class MappedArray {
  static_assert(std::is_trivial_v<T>);

 public:
  explicit MappedArray(size_t n) : size_(n) {
    if (n == 0) return;
    void* p = ::mmap(nullptr, n * sizeof(T), PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    GAUSS_CHECK_MSG(p != MAP_FAILED, "BulkLoad: cannot map scratch memory");
    data_ = static_cast<T*>(p);
  }
  MappedArray(MappedArray&& other) noexcept
      : data_(std::exchange(other.data_, nullptr)),
        size_(std::exchange(other.size_, 0)) {}
  MappedArray& operator=(MappedArray&&) = delete;
  ~MappedArray() {
    if (data_ != nullptr) ::munmap(data_, size_ * sizeof(T));
  }

  T* data() { return data_; }
  const T* data() const { return data_; }

 private:
  T* data_ = nullptr;
  size_t size_ = 0;
};

// The items of one level, as rows of `stride` doubles. Columns [0, 2d) are
// the split keys of the 2d axes (mu axes first, then sigma axes). Columns
// [lo, lo + 2d) and [hi, hi + 2d) are the item's extent along the same
// axes. A leaf-level row is a point — (mu, sigma) — so its keys are its
// extent and lo == hi == 0; an upper-level row holds an entry's MBR center
// followed by its lower and upper MBR edges.
struct LevelMatrix {
  LevelMatrix(size_t n, size_t stride, size_t lo, size_t hi)
      : values(n * stride), stride(stride), lo(lo), hi(hi) {}

  MappedArray<double> values;
  size_t stride;
  size_t lo;
  size_t hi;

  const double* row(uint32_t item) const {
    return values.data() + size_t{item} * stride;
  }
};

// Row i holds the pfv at items[positions[i]], gathered in place.
LevelMatrix ObjectMatrix(const std::vector<Pfv>& items,
                         const std::vector<uint32_t>& positions, size_t dim) {
  LevelMatrix m(positions.size(), 2 * dim, 0, 0);
  double* out = m.values.data();
  for (const uint32_t position : positions) {
    GAUSS_CHECK_MSG(position < items.size(),
                    "BulkLoad: position past the end of the dataset");
    const Pfv& pfv = items[position];
    out = std::copy(pfv.mu.begin(), pfv.mu.end(), out);
    out = std::copy(pfv.sigma.begin(), pfv.sigma.end(), out);
  }
  return m;
}

LevelMatrix EntryMatrix(const std::vector<GtChildEntry>& items, size_t dim) {
  LevelMatrix m(items.size(), 6 * dim, 2 * dim, 4 * dim);
  for (size_t e = 0; e < items.size(); ++e) {
    double* row = m.values.data() + e * m.stride;
    for (size_t i = 0; i < dim; ++i) {
      const DimBounds& b = items[e].bounds[i];
      row[i] = 0.5 * (b.mu_lo + b.mu_hi);
      row[dim + i] = 0.5 * (b.sigma_lo + b.sigma_hi);
      row[m.lo + i] = b.mu_lo;
      row[m.lo + dim + i] = b.sigma_lo;
      row[m.hi + i] = b.mu_hi;
      row[m.hi + dim + i] = b.sigma_hi;
    }
  }
  return m;
}

// 0, 1, ..., n - 1.
std::vector<uint32_t> AllPositions(size_t n) {
  GAUSS_CHECK_MSG(n <= std::numeric_limits<uint32_t>::max(),
                  "BulkLoad indexes objects with 32-bit positions");
  std::vector<uint32_t> positions(n);
  std::iota(positions.begin(), positions.end(), uint32_t{0});
  return positions;
}

// Calls emit(from, to) for every final range of the recursive median split
// of [0, n) into ranges of at most `capacity` items, in the order of a
// depth-first walk that visits the right half first. The ranges depend only
// on n and capacity, never on the data.
template <typename Emit>
void ForEachGroup(size_t n, size_t capacity, Emit emit) {
  struct Range {
    size_t from, to;
  };
  std::vector<Range> stack{{0, n}};
  while (!stack.empty()) {
    const Range range = stack.back();
    stack.pop_back();
    const size_t count = range.to - range.from;
    if (count <= capacity) {
      emit(range.from, range.to);
      continue;
    }
    const size_t median = range.from + count / 2;
    stack.push_back({range.from, median});
    stack.push_back({median, range.to});
  }
}

// Pass 1 of one level: permutes `order` so that every range ForEachGroup
// emits holds the items of one node. `cost` maps a node's bounds to the
// split objective (GaussTree::NodeCost). Splitting order[from, to) reads
// the matrix and writes only that range and its thread's scratch, so
// disjoint ranges run concurrently.
template <typename Cost>
class LevelPartitioner {
 public:
  LevelPartitioner(const LevelMatrix& matrix, std::vector<uint32_t>& order,
                   size_t dim, size_t capacity, const Cost& cost)
      : m_(matrix), order_(order), dim_(dim), capacity_(capacity),
        cost_(cost) {}

  // Partitions order[0, n) on up to `threads` threads.
  void Run(size_t n, size_t threads) const {
    Scratch scratch(n, dim_);
    Split(0, n, threads, &scratch);
  }

 private:
  struct Keyed {
    double key;
    uint32_t item;
  };

  // One thread's buffers, reused by every range it splits. `keyed` holds at
  // least as many entries as the thread's first range.
  struct Scratch {
    Scratch(size_t count, size_t dim)
        : keyed(count), lo(2 * dim), hi(2 * dim), left(dim), right(dim) {}
    MappedArray<Keyed> keyed;
    std::vector<double> lo, hi;  // running extremes, one per axis
    std::vector<DimBounds> left, right;
  };

  void Split(size_t from, size_t to, size_t threads, Scratch* scratch) const {
    if (to - from <= capacity_) return;
    const size_t median = from + (to - from) / 2;
    PartitionAtBestAxis(from, median, to, scratch);
    if (threads > 1 && to - median > capacity_) {
      const size_t helper_threads = threads / 2;
      std::jthread helper([this, median, to, helper_threads] {
        Scratch own(to - median, dim_);
        Split(median, to, helper_threads, &own);
      });
      Split(from, median, threads - helper_threads, scratch);
    } else {
      Split(from, median, threads, scratch);
      Split(median, to, threads, scratch);
    }
  }

  // Leaves order[from, to) split at `median` along the axis whose halves
  // have the smallest summed cost.
  void PartitionAtBestAxis(size_t from, size_t median, size_t to,
                           Scratch* scratch) const {
    double best_cost = std::numeric_limits<double>::infinity();
    size_t best_axis = 0;
    for (size_t axis = 0; axis < 2 * dim_; ++axis) {
      Partition(from, median, to, axis, scratch);
      Bounds(from, median, scratch, &scratch->left);
      Bounds(median, to, scratch, &scratch->right);
      const double cost = cost_(scratch->left) + cost_(scratch->right);
      if (cost < best_cost) {
        best_cost = cost;
        best_axis = axis;
      }
    }
    // The last pass was for the last axis, and nth_element over an already
    // partitioned range may still move items, so this pass runs even when
    // the last axis won.
    Partition(from, median, to, best_axis, scratch);
  }

  // Rows are visited in `order`, i.e. at random; touching a row this many
  // items ahead hides most cache misses on levels larger than the cache.
  static constexpr size_t kPrefetchDistance = 8;

  // std::nth_element of order[from, to) by the axis key. It runs on
  // (key, item) pairs so that comparisons read contiguous memory; the
  // algorithm moves elements only by comparison outcomes, so the items end
  // up in exactly the order a comparator over `order` itself would leave.
  void Partition(size_t from, size_t median, size_t to, size_t axis,
                 Scratch* scratch) const {
    const double* keys = m_.values.data() + axis;
    Keyed* keyed = scratch->keyed.data();
    for (size_t i = from; i < to; ++i) {
      if (i + kPrefetchDistance < to) {
        __builtin_prefetch(keys + m_.stride * order_[i + kPrefetchDistance]);
      }
      keyed[i - from] = {keys[m_.stride * order_[i]], order_[i]};
    }
    std::nth_element(keyed, keyed + (median - from), keyed + (to - from),
                     [](const Keyed& a, const Keyed& b) {
                       return a.key < b.key;
                     });
    for (size_t i = from; i < to; ++i) order_[i] = keyed[i - from].item;
  }

  // Parameter-space MBR of the items order[from, to). The extremes are
  // taken with the same std::min/std::max and in the same item order as
  // GtNode::ComputeBounds, so the costs equal those of the materialized
  // nodes bit for bit. Keeping the running extremes in flat lo/hi arrays,
  // not in the DimBounds, lets the loop vectorize.
  void Bounds(size_t from, size_t to, Scratch* scratch,
              std::vector<DimBounds>* out) const {
    const size_t axes = 2 * dim_;
    double* __restrict lo = scratch->lo.data();
    double* __restrict hi = scratch->hi.data();
    std::fill(lo, lo + axes, std::numeric_limits<double>::infinity());
    std::fill(hi, hi + axes, -std::numeric_limits<double>::infinity());
    for (size_t i = from; i < to; ++i) {
      if (i + kPrefetchDistance < to) {
        const char* ahead = reinterpret_cast<const char*>(
            m_.row(order_[i + kPrefetchDistance]));
        for (size_t b = 0; b < m_.stride * sizeof(double); b += 64) {
          __builtin_prefetch(ahead + b);
        }
      }
      const double* __restrict row_lo = m_.row(order_[i]) + m_.lo;
      const double* __restrict row_hi = m_.row(order_[i]) + m_.hi;
      for (size_t a = 0; a < axes; ++a) {
        lo[a] = std::min(lo[a], row_lo[a]);
        hi[a] = std::max(hi[a], row_hi[a]);
      }
    }
    for (size_t d = 0; d < dim_; ++d) {
      (*out)[d] = DimBounds{lo[d], hi[d], lo[dim_ + d], hi[dim_ + d]};
    }
  }

  const LevelMatrix& m_;
  std::vector<uint32_t>& order_;
  size_t dim_;
  size_t capacity_;
  const Cost& cost_;
};

}  // namespace

void GaussTree::BulkLoad(const PfvDataset& dataset, size_t threads) {
  BulkLoad(dataset, AllPositions(dataset.size()), threads);
}

void GaussTree::BulkLoad(const PfvDataset& dataset,
                         std::vector<uint32_t> positions, size_t threads) {
  GAUSS_CHECK_MSG(size_ == 0, "BulkLoad requires an empty tree");
  GAUSS_CHECK_MSG(!store_.finalized(), "BulkLoad requires build mode");
  GAUSS_CHECK(dataset.dim() == dim_);
  if (positions.empty()) return;

  const auto cost = [this](const std::vector<DimBounds>& bounds) {
    return NodeCost(bounds);
  };
  // Partitions the level's n items into groups of at most `capacity`;
  // returns the permutation that lists each group contiguously.
  auto partition = [&](const LevelMatrix& matrix, size_t n, size_t capacity) {
    std::vector<uint32_t> order = AllPositions(n);
    LevelPartitioner(matrix, order, dim_, capacity, cost).Run(n, threads);
    return order;
  };

  // Nodes are written to the device below, past the pool: drop any frame a
  // Definalize() left of the root page, so no cached copy outlives it.
  pool_->Clear();

  // Leaf level, read in place through `positions`. The partition permutes
  // matrix rows, i.e. list indices; mapped through the list, leaf_order[i]
  // is the dataset position of the i-th object placed. The key matrix and
  // the list are freed before the leaves are created.
  const std::vector<Pfv>& items = dataset.objects();
  const size_t n = positions.size();
  std::vector<uint32_t> leaf_order =
      partition(ObjectMatrix(items, positions, dim_), n, caps_.leaf);
  for (uint32_t& row : leaf_order) row = positions[row];
  positions = std::vector<uint32_t>();
  std::vector<GtChildEntry> level;
  ForEachGroup(n, caps_.leaf, [&](size_t from, size_t to) {
    // The root-leaf created by the constructor is reused for the very first
    // materialized leaf.
    GtNode* leaf = level.empty() ? store_.GetMutable(root_)
                                 : store_.Create(GtNodeKind::kLeaf);
    for (size_t i = from; i < to; ++i) {
      leaf->pfvs.push_back(items[leaf_order[i]]);
    }
    GtChildEntry entry;
    entry.child = leaf->id;
    entry.count = static_cast<uint32_t>(leaf->pfvs.size());
    entry.bounds = leaf->ComputeBounds(dim_);
    level.push_back(std::move(entry));
    store_.Persist(leaf->id);
  });
  size_ = n;

  // Upper levels: group the previous level's entries with the same recursive
  // median partitioning on MBR centers until everything fits in one root.
  while (level.size() > 1) {
    const std::vector<uint32_t> order =
        partition(EntryMatrix(level, dim_), level.size(), caps_.inner);
    std::vector<GtChildEntry> next;
    ForEachGroup(level.size(), caps_.inner, [&](size_t from, size_t to) {
      GtNode* inner = store_.Create(GtNodeKind::kInner);
      for (size_t i = from; i < to; ++i) {
        inner->children.push_back(level[order[i]]);
      }
      GtChildEntry entry;
      entry.child = inner->id;
      entry.count = inner->SubtreeCount();
      entry.bounds = inner->ComputeBounds(dim_);
      next.push_back(std::move(entry));
      store_.Persist(inner->id);
    });
    level = std::move(next);
  }
  root_ = level.front().child;
}

}  // namespace gauss
