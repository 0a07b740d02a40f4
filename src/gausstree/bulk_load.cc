#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numeric>
#include <thread>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "common/mapped_array.h"
#include "common/stopwatch.h"
#include "gausstree/gauss_tree.h"
#include "math/hull_integral.h"
#include "math/kernels.h"

// Bulk loading (GaussTree::BulkLoad): a top-down recursive median
// partitioning in the 2d-dimensional (mu, sigma) parameter space, choosing
// at every level the axis that minimizes the summed hull integrals of the
// two halves — the same objective the paper's insertion-time split strategy
// optimizes (Section 5.3), applied globally. Compared to one-by-one
// insertion this yields fuller nodes and more selective MBRs in a fraction
// of the build time (bench: ablation_bulkload).
//
// Each tree level is built in two passes:
//  1. Partition. A permutation `order` of the level's items is split
//     recursively. A split cuts its range at the median of every candidate
//     axis in turn: a chain of 2d std::nth_element passes, each starting
//     from the previous one's output, in which every item records the half
//     it landed in. One more pass over the range then takes the MBRs of
//     both halves of all 2d candidates at once, and the range is cut for
//     good along the cheapest axis. The leaf level reads its objects in
//     place at every split: a dataset's pfvs through one (mu, sigma)
//     pointer pair per object, SoA runs (leaf pages, a delta) through one
//     (axis-0 address, stride) pair. An upper level reads the flat rows
//     of MBR edges its entries were written to (LevelEntries); an entry's
//     key is its MBR center. No node or pfv is copied. The two halves of a
//     split are disjoint ranges of `order`, so one half goes to a helper
//     thread while threads remain.
//  2. Materialize. The final ranges are numbered in the order a
//     sequential right-half-first depth-first loader would visit them, and
//     node k of the load, counted over the levels in that order (leaves
//     first), takes the k-th page the load allocated, so page ids are fixed
//     whatever the thread count. The leaves are written straight from the
//     rows into a page buffer (WriteLeafPage): ids, planes, checksum and
//     MBR, with no GtNode and no pfv copied; once the partition has freed
//     its scratch, they are written on all of the load's threads, each
//     writing a contiguous run of leaves to its own pages. An inner node is
//     written the same way from its children's entries (WriteInnerPage), on
//     the calling thread. Only a node's parent entry — page id, count, MBR
//     — stays in memory, as a row of the next level up.
// The pages a load takes can be reserved before it starts
// (GaussTree::ReserveBulkLoad): their number is a pure function of the
// object count and the node capacities, so trees sharing a device load side
// by side and still get the pages of loads run one after another.
//
// std::nth_element is deterministic for a given input sequence, and each
// range's input depends only on what happened to that range before, so the
// permutation — and with it the whole device image — does not depend on
// the number of threads. A half's MBR is the min and max over the same set
// of items whatever order they are visited in, with one exception: of -0.0
// and +0.0, std::min/std::max keep whichever comes first. The split cost reads
// an extent only as hi - lo added to a positive term (GaussTree::NodeCost),
// where the sign of a zero is lost, so every candidate costs what a pass
// per candidate in node order would give, and the same axes win.

namespace gauss {

namespace {

// Touches every cache line of `bytes` bytes from p.
void PrefetchBytes(const void* p, size_t bytes) {
  const char* c = static_cast<const char*>(p);
  for (size_t b = 0; b < bytes; b += 64) __builtin_prefetch(c + b);
}

// Rows of a level as LevelPartitioner reads them (LevelEntries, PfvRows,
// SoaRows): item i has a split key per axis — the 2d axes are the mu axes,
// then the sigma axes — and an extent along the same axes. Rows are visited
// at random, so the partitioner touches them ahead: PrefetchRow fetches a
// row's handle, PrefetchKey and PrefetchExtent its values once the handle
// is cached. The leaf rows (PfvRows, SoaRows) also hand their objects to
// the leaves: once the partition is done, Release(&order) maps the order
// from rows to object handles and frees the row view, and Object(handle)
// is the object, read where it lies.

// The leaf level: row i is the pfv at items[positions[i]], read in place
// through its mu and sigma pointers. A row is a point, so its extent is its
// keys.
class PfvRows {
 public:
  PfvRows(const std::vector<Pfv>& items, std::vector<uint32_t> positions,
          size_t dim)
      : items_(items),
        positions_(std::move(positions)),
        rows_(positions_.size()),
        dim_(dim) {
    Row* row = rows_.data();
    for (const uint32_t position : positions_) {
      GAUSS_CHECK_MSG(position < items.size(),
                      "BulkLoad: position past the end of the dataset");
      *row++ = {items[position].mu.data(), items[position].sigma.data()};
    }
  }

  // Until Release().
  size_t size() const { return positions_.size(); }
  double Key(uint32_t item, size_t axis) const { return *KeyAt(item, axis); }
  void PrefetchRow(uint32_t item) const {
    __builtin_prefetch(rows_.data() + item);
  }
  void PrefetchKey(uint32_t item, size_t axis) const {
    __builtin_prefetch(KeyAt(item, axis));
  }
  void PrefetchExtent(uint32_t item) const {
    const Row& r = rows_[item];
    PrefetchBytes(r.mu, dim_ * sizeof(double));
    PrefetchBytes(r.sigma, dim_ * sizeof(double));
  }
  // Copies the item's mu, then its sigma, to buffer[0, 2d).
  void Extent(uint32_t item, double* buffer, const double** lo_out,
              const double** hi_out) const {
    const Row& r = rows_[item];
    std::copy(r.mu, r.mu + dim_, buffer);
    std::copy(r.sigma, r.sigma + dim_, buffer + dim_);
    *lo_out = *hi_out = buffer;
  }
  // The handle of an object is its dataset position. The position list goes
  // with the rows: memory freed to malloc mid-build stays resident, and a
  // whole-gallery list held to the end raised `tree`'s peak by 0.3 MiB.
  void Release(MappedArray<uint32_t>* order) {
    for (size_t i = 0; i < order->size(); ++i) {
      (*order)[i] = positions_[(*order)[i]];
    }
    positions_ = std::vector<uint32_t>();
    rows_.Free();
  }
  GtLeafObject Object(uint32_t position) const {
    const Pfv& pfv = items_[position];
    return {pfv.id, pfv.mu.data(), pfv.sigma.data(), 1};
  }

 private:
  struct Row {
    const double* mu;
    const double* sigma;
  };

  const double* KeyAt(uint32_t item, size_t axis) const {
    const Row& r = rows_[item];
    return axis < dim_ ? r.mu + axis : r.sigma + (axis - dim_);
  }

  const std::vector<Pfv>& items_;
  std::vector<uint32_t> positions_;
  MappedArray<Row> rows_;
  size_t dim_;
};

// The leaf level over SoA runs (GaussTree::SoaRun): row i is the object at
// positions[i], counted over the runs in order, read in place, axis a of a
// run's object j at planes[a * stride + j]. A row keeps its object's axis-0
// address and its run's stride, 16 B, like a PfvRows row.
class SoaRows {
 public:
  SoaRows(const std::vector<GaussTree::SoaRun>& runs,
          std::vector<uint32_t> positions, size_t dim)
      : runs_(runs),
        starts_(runs.size() + 1, 0),
        positions_(std::move(positions)),
        rows_(positions_.size()),
        dim_(dim) {
    for (size_t r = 0; r < runs.size(); ++r) {
      starts_[r + 1] = starts_[r] + runs[r].n;
    }
    Row* row = rows_.data();
    for (const uint32_t position : positions_) {
      GAUSS_CHECK_MSG(position < starts_.back(),
                      "BulkLoad: position past the end of the runs");
      const size_t r = RunOf(position);
      *row++ = {runs[r].planes + (position - starts_[r]), runs[r].stride};
    }
  }

  // Until Release().
  size_t size() const { return positions_.size(); }
  double Key(uint32_t item, size_t axis) const { return *KeyAt(item, axis); }
  void PrefetchRow(uint32_t item) const {
    __builtin_prefetch(rows_.data() + item);
  }
  void PrefetchKey(uint32_t item, size_t axis) const {
    __builtin_prefetch(KeyAt(item, axis));
  }
  void PrefetchExtent(uint32_t item) const {
    for (size_t a = 0; a < 2 * dim_; ++a) __builtin_prefetch(KeyAt(item, a));
  }
  // Copies the item's mu, then its sigma, to buffer[0, 2d).
  void Extent(uint32_t item, double* buffer, const double** lo_out,
              const double** hi_out) const {
    for (size_t a = 0; a < 2 * dim_; ++a) buffer[a] = Key(item, a);
    *lo_out = *hi_out = buffer;
  }

  // The handle of an object is its position; the list goes with the rows,
  // as PfvRows' does.
  void Release(MappedArray<uint32_t>* order) {
    for (size_t i = 0; i < order->size(); ++i) {
      (*order)[i] = positions_[(*order)[i]];
    }
    positions_ = std::vector<uint32_t>();
    rows_.Free();
  }
  GtLeafObject Object(uint32_t position) const {
    const size_t r = RunOf(position);
    const GaussTree::SoaRun& run = runs_[r];
    const size_t j = position - starts_[r];
    return {run.ids[j], run.planes + j, run.planes + dim_ * run.stride + j,
            run.stride};
  }

 private:
  struct Row {
    const double* first;  // axis 0
    size_t stride;
  };

  // The run that holds `position`, found from the runs' first positions.
  size_t RunOf(uint32_t position) const {
    return static_cast<size_t>(
        std::upper_bound(starts_.begin(), starts_.end(), position) -
        starts_.begin() - 1);
  }

  const double* KeyAt(uint32_t item, size_t axis) const {
    const Row& r = rows_[item];
    return r.first + axis * r.stride;
  }

  const std::vector<GaussTree::SoaRun>& runs_;
  std::vector<size_t> starts_;  // run r's first position; then the count
  std::vector<uint32_t> positions_;
  MappedArray<Row> rows_;
  size_t dim_;
};

// The nodes of one level as entries of the level above: entry e is a
// node's page, its object count and its MBR, a row of 2d lower edges (the
// mu axes, then the sigma axes) followed by the 2d upper edges, as
// WriteLeafPage and WriteInnerPage leave them. As rows of the next level's
// partition, an entry's key along an axis is its MBR center there,
// 0.5 * (lo + hi), and its extent its edges.
class LevelEntries {
 public:
  LevelEntries(size_t n, size_t dim)
      : edges_(n * 4 * dim), children_(n), counts_(n), axes_(2 * dim) {}

  size_t size() const { return children_.size(); }
  double* lo(size_t e) { return edges_.data() + e * 2 * axes_; }
  double* hi(size_t e) { return lo(e) + axes_; }
  const double* lo(size_t e) const { return edges_.data() + e * 2 * axes_; }
  const double* hi(size_t e) const { return lo(e) + axes_; }
  void Set(size_t e, PageId child, uint32_t count) {
    children_[e] = child;
    counts_[e] = count;
  }
  GtChildRef Child(size_t e) const {
    return {children_[e], counts_[e], lo(e), hi(e)};
  }

  double Key(uint32_t item, size_t axis) const {
    return 0.5 * (lo(item)[axis] + hi(item)[axis]);
  }
  void PrefetchRow(uint32_t) const {}
  void PrefetchKey(uint32_t item, size_t axis) const {
    __builtin_prefetch(lo(item) + axis);
    __builtin_prefetch(hi(item) + axis);
  }
  void PrefetchExtent(uint32_t item) const {
    PrefetchBytes(lo(item), 2 * axes_ * sizeof(double));
  }
  void Extent(uint32_t item, double* /*buffer*/, const double** lo_out,
              const double** hi_out) const {
    *lo_out = lo(item);
    *hi_out = hi(item);
  }

 private:
  MappedArray<double> edges_;
  MappedArray<PageId> children_;
  MappedArray<uint32_t> counts_;
  size_t axes_;
};

// 0, 1, ..., n - 1.
MappedArray<uint32_t> Identity(size_t n) {
  GAUSS_CHECK_MSG(n <= std::numeric_limits<uint32_t>::max(),
                  "BulkLoad indexes objects with 32-bit positions");
  MappedArray<uint32_t> order(n);
  std::iota(order.data(), order.data() + n, uint32_t{0});
  return order;
}

struct Range {
  size_t from, to;
};

// The final ranges of the recursive median split of [0, n) into ranges of
// at most `capacity` items, in the order of a depth-first walk that visits
// the right half first: the nodes of one level, in the order they take
// their pages. The ranges depend only on n and capacity, never on the data.
std::vector<Range> Groups(size_t n, size_t capacity) {
  std::vector<Range> groups;
  std::vector<Range> stack{{0, n}};
  while (!stack.empty()) {
    const Range range = stack.back();
    stack.pop_back();
    const size_t count = range.to - range.from;
    if (count <= capacity) {
      groups.push_back(range);
      continue;
    }
    const size_t median = range.from + count / 2;
    stack.push_back({range.from, median});
    stack.push_back({median, range.to});
  }
  return groups;
}

// Pages a load of n objects allocates: one per node but the first leaf,
// which takes the root page the tree's constructor allocated.
size_t LoadPageCount(size_t n, const GtCapacities& caps) {
  if (n == 0) return 0;
  size_t level = Groups(n, caps.leaf).size();
  size_t pages = level - 1;
  while (level > 1) {
    level = Groups(level, caps.inner).size();
    pages += level;
  }
  return pages;
}

// A split key and the item it belongs to. `slot` is the item's place in its
// range before the split, the index of its side mask.
struct Keyed {
  double key;
  uint32_t item;
  uint32_t slot;
};

// 64-bit words of one item's side mask: one bit per candidate axis.
size_t SideWords(size_t dim) { return (2 * dim + 63) / 64; }

// One thread's buffers, reused by every range it splits. `keyed` and
// `sides` hold at least as many items as the thread's first range;
// `extremes` holds the lower and upper extents of both halves of every
// candidate axis. The ranges a thread splits shrink as it descends, so
// after each split the thread gives back what lies past the larger range
// it splits next (Shrink): at 100k objects its first range's 2.4 MB would
// otherwise stay resident while it splits quarter ranges and its helpers
// map their own.
struct SplitScratch {
  SplitScratch(size_t count, size_t dim)
      : keyed(count),
        sides(count * SideWords(dim)),
        extremes(16 * dim * dim),
        row(2 * dim),
        left(dim),
        right(dim),
        words(SideWords(dim)) {}

  // Splits touch keyed and sides up to their range's item count; call
  // before a split of `count` items.
  void Touch(size_t count) { touched = std::max(touched, count); }

  // Releases keyed and sides past the first `count` items once the touched
  // tail spans at least kMinRelease bytes, so a build makes a few dozen
  // madvise calls, not one per split.
  void Shrink(size_t count) {
    if (count >= touched ||
        (touched - count) * (sizeof(Keyed) + words * sizeof(uint64_t)) <
            kMinRelease) {
      return;
    }
    keyed.ReleaseTail(count);
    sides.ReleaseTail(count * words);
    touched = count;
  }

  static constexpr size_t kMinRelease = size_t{256} << 10;

  MappedArray<Keyed> keyed;
  MappedArray<uint64_t> sides;
  MappedArray<double> extremes;
  std::vector<double> row;
  std::vector<DimBounds> left, right;
  size_t words;
  size_t touched = 0;  // items of keyed and sides that may be resident
};

// Pass 1 of one level: permutes order[0, n) so that every range of
// Groups(n, capacity) holds the items of one node. `Rows` is PfvRows,
// SoaRows or LevelEntries; `cost` maps a node's bounds to the split objective
// (GaussTree::NodeCost). Splitting order[from, to) reads the rows and
// writes only that range and its thread's scratch, so disjoint ranges run
// concurrently.
template <typename Rows, typename Cost>
class LevelPartitioner {
 public:
  LevelPartitioner(const Rows& rows, uint32_t* order, size_t dim,
                   size_t capacity, const Cost& cost)
      : rows_(rows), order_(order), dim_(dim), capacity_(capacity),
        cost_(cost) {}

  // Partitions order[0, n) on up to `threads` threads.
  void Run(size_t n, size_t threads) const {
    SplitScratch scratch(n, dim_);
    Split(0, n, threads, &scratch);
  }

 private:
  // Rows are visited in `order`, i.e. at random; touching a row this many
  // items ahead hides most cache misses on levels larger than the cache.
  // A row read in place is two hops away, so its handle goes twice as far
  // ahead.
  static constexpr size_t kPrefetchDistance = 8;

  // Partitions order[from, to) on up to `threads` threads; the calling
  // thread works in `scratch`.
  void Split(size_t from, size_t to, size_t threads,
             SplitScratch* scratch) const {
    if (to - from <= capacity_) return;
    const size_t median = from + (to - from) / 2;
    scratch->Touch(to - from);
    PartitionAtBestAxis(from, median, to, scratch);
    if (threads > 1 && to - median > capacity_) {
      scratch->Shrink(median - from);
      const size_t helper_threads = threads / 2;
      std::jthread helper([this, median, to, helper_threads] {
        const size_t count = to - median;
        SplitScratch own(count, dim_);
        Split(median, to, helper_threads, &own);
      });
      Split(from, median, threads - helper_threads, scratch);
    } else {
      scratch->Shrink(to - median);
      Split(from, median, threads, scratch);
      Split(median, to, threads, scratch);
    }
  }

  // Leaves order[from, to) split at `median` along the axis whose halves
  // have the smallest summed cost.
  void PartitionAtBestAxis(size_t from, size_t median, size_t to,
                           SplitScratch* scratch) const {
    const size_t count = to - from;
    const size_t half = median - from;
    const size_t words = SideWords(dim_);
    Keyed* keyed = scratch->keyed.data();
    uint64_t* sides = scratch->sides.data();
    for (size_t i = 0; i < count; ++i) {
      keyed[i] = {0.0, order_[from + i], static_cast<uint32_t>(i)};
    }
    std::fill(sides, sides + count * words, uint64_t{0});
    for (size_t axis = 0; axis < 2 * dim_; ++axis) {
      SelectMedian(keyed, count, half, axis);
      const uint64_t bit = uint64_t{1} << (axis % 64);
      uint64_t* word = sides + axis / 64;
      for (size_t i = half; i < count; ++i) word[keyed[i].slot * words] |= bit;
    }
    // The last pass was for the last axis, and nth_element over an already
    // partitioned range may still move items, so this pass runs even when
    // the last axis won.
    SelectMedian(keyed, count, half, BestAxis(keyed, count, scratch));
    for (size_t i = 0; i < count; ++i) order_[from + i] = keyed[i].item;
  }

  // std::nth_element of keyed[0, count) by the axis key. It runs on (key,
  // item) pairs so that comparisons read contiguous memory; the algorithm
  // moves elements only by comparison outcomes, so the items end up in
  // exactly the order a comparator over the items themselves would leave.
  void SelectMedian(Keyed* keyed, size_t count, size_t half,
                    size_t axis) const {
    for (size_t i = 0; i < count; ++i) {
      if (i + 2 * kPrefetchDistance < count) {
        rows_.PrefetchRow(keyed[i + 2 * kPrefetchDistance].item);
      }
      if (i + kPrefetchDistance < count) {
        rows_.PrefetchKey(keyed[i + kPrefetchDistance].item, axis);
      }
      keyed[i].key = rows_.Key(keyed[i].item, axis);
    }
    std::nth_element(keyed, keyed + half, keyed + count,
                     [](const Keyed& a, const Keyed& b) {
                       return a.key < b.key;
                     });
  }

  // The candidate axis whose halves have the smallest summed cost (the
  // lowest such axis on ties), from one pass over the range: bit `axis` of
  // an item's side mask says which half that axis's pass left it in. The
  // extremes are folded by the dispatched kernel (kernels::ExtentFold),
  // with the same std::min/std::max as GtNode::ComputeBounds on every
  // backend.
  size_t BestAxis(const Keyed* keyed, size_t count,
                  SplitScratch* scratch) const {
    const size_t axes = 2 * dim_;
    const size_t words = SideWords(dim_);
    const uint64_t* sides = scratch->sides.data();
    // Half h (0 left, 1 right) of candidate a keeps its lower extents at
    // extremes[(2a + h) * 2 * axes, + axes) and its upper ones right after.
    double* extremes = scratch->extremes.data();
    for (size_t b = 0; b < 2 * axes; ++b) {
      double* lo = extremes + b * 2 * axes;
      std::fill(lo, lo + axes, std::numeric_limits<double>::infinity());
      std::fill(lo + axes, lo + 2 * axes,
                -std::numeric_limits<double>::infinity());
    }
    for (size_t i = 0; i < count; ++i) {
      if (i + 2 * kPrefetchDistance < count) {
        rows_.PrefetchRow(keyed[i + 2 * kPrefetchDistance].item);
      }
      if (i + kPrefetchDistance < count) {
        rows_.PrefetchExtent(keyed[i + kPrefetchDistance].item);
      }
      const double* row_lo;
      const double* row_hi;
      rows_.Extent(keyed[i].item, scratch->row.data(), &row_lo, &row_hi);
      kernels::ExtentFold(row_lo, row_hi, axes, sides + keyed[i].slot * words,
                          extremes);
    }
    double best_cost = std::numeric_limits<double>::infinity();
    size_t best_axis = 0;
    for (size_t a = 0; a < axes; ++a) {
      ToBounds(extremes + 2 * a * 2 * axes, &scratch->left);
      ToBounds(extremes + (2 * a + 1) * 2 * axes, &scratch->right);
      const double cost = cost_(scratch->left) + cost_(scratch->right);
      if (cost < best_cost) {
        best_cost = cost;
        best_axis = a;
      }
    }
    return best_axis;
  }

  // The DimBounds of one half's 2d lower extents followed by its 2d upper
  // ones.
  void ToBounds(const double* extents, std::vector<DimBounds>* out) const {
    const double* lo = extents;
    const double* hi = extents + 2 * dim_;
    for (size_t d = 0; d < dim_; ++d) {
      (*out)[d] = DimBounds{lo[d], hi[d], lo[dim_ + d], hi[dim_ + d]};
    }
  }

  const Rows& rows_;
  uint32_t* order_;
  size_t dim_;
  size_t capacity_;
  const Cost& cost_;
};

// Writes the leaves of a partitioned leaf level: leaf k holds the objects
// order[groups[k].from, groups[k].to) of `rows` and goes to page
// page_of(k). Leaves are split into contiguous runs over up to `threads`
// threads, each with its own page buffer; returns the leaves as entries of
// the level above.
template <typename Rows, typename PageOf>
LevelEntries WriteLeaves(const Rows& rows, const uint32_t* order,
                         const std::vector<Range>& groups, size_t capacity,
                         size_t dim, const GtNodeStore& store,
                         const PageOf& page_of, size_t threads) {
  LevelEntries leaves(groups.size(), dim);
  const size_t page_size = store.pool()->page_size();
  const auto write = [&](size_t first, size_t last) {
    MappedArray<uint64_t> buffer((page_size + 7) / 8);
    MappedArray<GtLeafObject> objects(capacity);
    uint8_t* page = reinterpret_cast<uint8_t*>(buffer.data());
    for (size_t k = first; k < last; ++k) {
      const size_t n = groups[k].to - groups[k].from;
      for (size_t i = 0; i < n; ++i) {
        objects[i] = rows.Object(order[groups[k].from + i]);
      }
      const size_t bytes =
          WriteLeafPage(objects.data(), n, dim, page, leaves.lo(k),
                        leaves.hi(k));
      std::memset(page + bytes, 0, page_size - bytes);
      leaves.Set(k, page_of(k), static_cast<uint32_t>(n));
      store.WritePage(page_of(k), page);
    }
  };
  const size_t writers =
      std::max<size_t>(1, std::min(threads, groups.size()));
  {
    std::vector<std::jthread> helpers;
    for (size_t w = 1; w < writers; ++w) {
      helpers.emplace_back(write, groups.size() * w / writers,
                           groups.size() * (w + 1) / writers);
    }
    write(0, groups.size() / writers);
  }
  return leaves;
}

}  // namespace

void GaussTree::ReserveBulkLoad(size_t n) {
  GAUSS_CHECK_MSG(size_ == 0, "BulkLoad requires an empty tree");
  GAUSS_CHECK_MSG(!reservation_.has_value(), "BulkLoad already reserved");
  reservation_ = Reservation{n, store_.AllocatePages(LoadPageCount(n, caps_))};
}

std::vector<PageId> GaussTree::TakeBulkLoadPages(size_t n) {
  if (!reservation_.has_value()) {
    return store_.AllocatePages(LoadPageCount(n, caps_));
  }
  GAUSS_CHECK_MSG(reservation_->objects == n,
                  "BulkLoad of another object count than reserved");
  std::vector<PageId> pages = std::move(reservation_->pages);
  reservation_.reset();
  return pages;
}

void GaussTree::BulkLoad(const PfvDataset& dataset, size_t threads) {
  GAUSS_CHECK_MSG(dataset.size() <= std::numeric_limits<uint32_t>::max(),
                  "BulkLoad indexes objects with 32-bit positions");
  std::vector<uint32_t> positions(dataset.size());
  std::iota(positions.begin(), positions.end(), uint32_t{0});
  BulkLoad(dataset, std::move(positions), threads);
}

void GaussTree::BulkLoad(const PfvDataset& dataset,
                         std::vector<uint32_t> positions, size_t threads) {
  GAUSS_CHECK(dataset.dim() == dim_);
  LoadRows(PfvRows(dataset.objects(), std::move(positions), dim_), threads);
}

void GaussTree::BulkLoad(const std::vector<SoaRun>& runs, size_t threads) {
  size_t n = 0;
  for (const SoaRun& run : runs) n += run.n;
  GAUSS_CHECK_MSG(n <= std::numeric_limits<uint32_t>::max(),
                  "BulkLoad indexes objects with 32-bit positions");
  std::vector<uint32_t> positions(n);
  std::iota(positions.begin(), positions.end(), uint32_t{0});
  BulkLoad(runs, std::move(positions), threads);
}

void GaussTree::BulkLoad(const std::vector<SoaRun>& runs,
                         std::vector<uint32_t> positions, size_t threads) {
  size_t n = 0;
  for (const SoaRun& run : runs) {
    GAUSS_CHECK_MSG(run.stride >= run.n,
                    "BulkLoad: a run's stride must hold its objects");
    n += run.n;
  }
  GAUSS_CHECK_MSG(n <= std::numeric_limits<uint32_t>::max(),
                  "BulkLoad indexes objects with 32-bit positions");
  LoadRows(SoaRows(runs, std::move(positions), dim_), threads);
}

template <typename Rows>
void GaussTree::LoadRows(Rows rows, size_t threads) {
  GAUSS_CHECK_MSG(size_ == 0, "BulkLoad requires an empty tree");
  GAUSS_CHECK_MSG(!store_.finalized(), "BulkLoad on a finalized tree");
  const size_t n = rows.size();
  const std::vector<PageId> pages = TakeBulkLoadPages(n);
  if (n == 0) return;
  load_times_ = BulkLoadTimes();
  Stopwatch phase;

  const auto cost = [this](const std::vector<DimBounds>& bounds) {
    return NodeCost(bounds);
  };
  // Partitions the level's n items into groups of at most `capacity`;
  // returns the permutation that lists each group contiguously.
  auto partition = [&](const auto& level_rows, size_t count,
                       size_t capacity) {
    MappedArray<uint32_t> order = Identity(count);
    LevelPartitioner(level_rows, order.data(), dim_, capacity, cost)
        .Run(count, threads);
    return order;
  };
  // Node k of the load, counted over the levels in the order they are
  // written; the first leaf takes the root page the constructor allocated.
  const auto page_of = [&](size_t node) {
    return node == 0 ? root_ : pages[node - 1];
  };

  // Leaf level, read in place. After the partition, leaf_order[i] is the
  // handle of the i-th object placed, and the row view is freed before any
  // leaf is written; each leaf reads its objects from where they lie.
  MappedArray<uint32_t> leaf_order = partition(rows, n, caps_.leaf);
  rows.Release(&leaf_order);
  load_times_.partition_s = phase.ElapsedSeconds();
  phase.Restart();
  LevelEntries level =
      WriteLeaves(rows, leaf_order.data(), Groups(n, caps_.leaf), caps_.leaf,
                  dim_, store_, page_of, threads);
  leaf_order.Free();
  size_ = n;
  load_times_.leaves_s = phase.ElapsedSeconds();
  phase.Restart();

  // Upper levels: group the previous level's entries with the same recursive
  // median partitioning on MBR centers until everything fits in one root.
  size_t node = level.size();
  std::vector<uint64_t> buffer((pool_->page_size() + 7) / 8);
  uint8_t* page = reinterpret_cast<uint8_t*>(buffer.data());
  std::vector<GtChildRef> children(caps_.inner);
  while (level.size() > 1) {
    const MappedArray<uint32_t> order =
        partition(level, level.size(), caps_.inner);
    const std::vector<Range> groups = Groups(level.size(), caps_.inner);
    LevelEntries next(groups.size(), dim_);
    for (size_t k = 0; k < groups.size(); ++k, ++node) {
      uint32_t count = 0;
      const size_t m = groups[k].to - groups[k].from;
      for (size_t i = 0; i < m; ++i) {
        children[i] = level.Child(order[groups[k].from + i]);
        count += children[i].count;
      }
      const size_t bytes = WriteInnerPage(children.data(), m, dim_, page,
                                          next.lo(k), next.hi(k));
      std::memset(page + bytes, 0, pool_->page_size() - bytes);
      next.Set(k, page_of(node), count);
      store_.WritePage(page_of(node), page);
    }
    level = std::move(next);
  }
  GAUSS_CHECK(node == pages.size() + 1);
  root_ = level.Child(0).child;
  load_times_.upper_s = phase.ElapsedSeconds();
}

}  // namespace gauss
