#include <sys/mman.h>
#include <unistd.h>

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
//  1. Partition. A permutation `order` of the level's items is split
//     recursively. A split cuts its range at the median of every candidate
//     axis in turn: a chain of 2d std::nth_element passes, each starting
//     from the previous one's output, in which every item records the half
//     it landed in. One more pass over the range then takes the MBRs of
//     both halves of all 2d candidates at once, and the range is cut for
//     good along the cheapest axis. The leaf level reads its objects in
//     place at every split: a dataset's pfvs through one (mu, sigma)
//     pointer pair per object, SoA runs (leaf pages, a delta) through one
//     (axis-0 address, stride) pair. An upper level gathers its entries
//     once into a flat matrix of MBR centers and edges. No node or pfv is
//     copied. The two halves of a split are disjoint ranges of `order`, so
//     one half goes to a helper thread while threads remain.
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
// the number of threads. A half's MBR is the min and max over the same set
// of items whatever order they are visited in, with one exception: of -0.0
// and +0.0, std::min/std::max keep whichever comes first. The split cost reads
// an extent only as hi - lo added to a positive term (GaussTree::NodeCost),
// where the sign of a zero is lost, so every candidate costs what a pass
// per candidate in node order would give, and the same axes win.

namespace gauss {

namespace {

// A fixed-size array of trivial T mapped straight from the kernel and
// unmapped on destruction. The bulk load's transient buffers — the leaf
// row view (16 B per object), the split scratch (24 B per item of a
// thread's first range), the upper levels' entry matrices — come from
// here. Taken from malloc, a freed buffer would raise glibc's dynamic mmap
// threshold to its size, so later frees of up to that size would stay
// resident: measured +2 MiB peak RSS on a 20k gallery with live ingest.
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

  T* data() { return data_; }
  const T* data() const { return data_; }

 private:
  T* data_ = nullptr;
  size_t size_ = 0;
};

// Touches every cache line of `bytes` bytes from p.
void PrefetchBytes(const void* p, size_t bytes) {
  const char* c = static_cast<const char*>(p);
  for (size_t b = 0; b < bytes; b += 64) __builtin_prefetch(c + b);
}

// Rows of a level as LevelPartitioner reads them (LevelMatrix, PfvRows,
// SoaRows): item i has a split key per axis — the 2d axes are the mu axes,
// then the sigma axes — and an extent along the same axes. Rows are visited
// at random, so the partitioner touches them ahead: PrefetchRow fetches a
// row's handle, PrefetchKey and PrefetchExtent its values once the handle
// is cached. The leaf rows (PfvRows, SoaRows) also hand their objects to
// the leaves: once the partition is done, Release(&order) maps the order
// from rows to object handles and frees the row view, and Object(handle)
// is the object, read where it lies.
//
// The items of an upper level, as rows of `stride` doubles. Columns [0, 2d)
// are the split keys, an entry's MBR center. Columns [lo, lo + 2d) and
// [hi, hi + 2d) are its lower and upper MBR edges along the same axes.
struct LevelMatrix {
  LevelMatrix(size_t n, size_t stride, size_t lo, size_t hi)
      : values(n * stride), stride(stride), lo(lo), hi(hi) {}

  MappedArray<double> values;
  size_t stride;
  size_t lo;
  size_t hi;

  double* row(uint32_t item) { return values.data() + size_t{item} * stride; }
  const double* row(uint32_t item) const {
    return values.data() + size_t{item} * stride;
  }

  double Key(uint32_t item, size_t axis) const { return row(item)[axis]; }
  void PrefetchRow(uint32_t) const {}
  void PrefetchKey(uint32_t item, size_t axis) const {
    __builtin_prefetch(row(item) + axis);
  }
  void PrefetchExtent(uint32_t item) const {
    PrefetchBytes(row(item), stride * sizeof(double));
  }
  // Points *lo_out and *hi_out at the item's 2d lower and upper extents.
  void Extent(uint32_t item, double* /*buffer*/, const double** lo_out,
              const double** hi_out) const {
    *lo_out = row(item) + lo;
    *hi_out = row(item) + hi;
  }
};

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
    const Row& r = rows_.data()[item];
    PrefetchBytes(r.mu, dim_ * sizeof(double));
    PrefetchBytes(r.sigma, dim_ * sizeof(double));
  }
  // Copies the item's mu, then its sigma, to buffer[0, 2d).
  void Extent(uint32_t item, double* buffer, const double** lo_out,
              const double** hi_out) const {
    const Row& r = rows_.data()[item];
    std::copy(r.mu, r.mu + dim_, buffer);
    std::copy(r.sigma, r.sigma + dim_, buffer + dim_);
    *lo_out = *hi_out = buffer;
  }
  // The handle of an object is its dataset position. The position list goes
  // with the rows: memory freed to malloc mid-build stays resident, and a
  // whole-gallery list held to the end raised `tree`'s peak by 0.3 MiB.
  void Release(std::vector<uint32_t>* order) {
    for (uint32_t& row : *order) row = positions_[row];
    positions_ = std::vector<uint32_t>();
    rows_.Free();
  }
  const Pfv& Object(uint32_t position) const { return items_[position]; }

 private:
  struct Row {
    const double* mu;
    const double* sigma;
  };

  const double* KeyAt(uint32_t item, size_t axis) const {
    const Row& r = rows_.data()[item];
    return axis < dim_ ? r.mu + axis : r.sigma + (axis - dim_);
  }

  const std::vector<Pfv>& items_;
  std::vector<uint32_t> positions_;
  MappedArray<Row> rows_;
  size_t dim_;
};

// The leaf level over SoA runs (GaussTree::SoaRun): the runs' objects in
// order, each read in place, axis a of a run's object j at
// planes[a * stride + j]. A row keeps its object's axis-0 address and its
// run's stride, 16 B, like a PfvRows row.
class SoaRows {
 public:
  SoaRows(const std::vector<GaussTree::SoaRun>& runs, size_t n, size_t dim)
      : runs_(runs), starts_(runs.size() + 1, 0), rows_(n), dim_(dim) {
    Row* row = rows_.data();
    for (size_t r = 0; r < runs.size(); ++r) {
      starts_[r + 1] = starts_[r] + runs[r].n;
      for (size_t j = 0; j < runs[r].n; ++j) {
        *row++ = {runs[r].planes + j, runs[r].stride};
      }
    }
  }

  size_t size() const { return starts_.back(); }
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

  // The handle of an object is its row: the run that holds it is found
  // from the runs' first rows.
  void Release(std::vector<uint32_t>*) { rows_.Free(); }
  Pfv Object(uint32_t item) const {
    const size_t r = static_cast<size_t>(
        std::upper_bound(starts_.begin(), starts_.end(), item) -
        starts_.begin() - 1);
    const GaussTree::SoaRun& run = runs_[r];
    const size_t j = item - starts_[r];
    Pfv pfv;
    pfv.id = run.ids[j];
    pfv.mu.resize(dim_);
    pfv.sigma.resize(dim_);
    for (size_t d = 0; d < dim_; ++d) {
      pfv.mu[d] = run.planes[d * run.stride + j];
      pfv.sigma[d] = run.planes[(dim_ + d) * run.stride + j];
    }
    return pfv;
  }

 private:
  struct Row {
    const double* first;  // axis 0
    size_t stride;
  };

  const double* KeyAt(uint32_t item, size_t axis) const {
    const Row& r = rows_.data()[item];
    return r.first + axis * r.stride;
  }

  const std::vector<GaussTree::SoaRun>& runs_;
  std::vector<size_t> starts_;  // run r's first row; then the row count
  MappedArray<Row> rows_;
  size_t dim_;
};

LevelMatrix EntryMatrix(const std::vector<GtChildEntry>& items, size_t dim) {
  LevelMatrix m(items.size(), 6 * dim, 2 * dim, 4 * dim);
  for (size_t e = 0; e < items.size(); ++e) {
    double* row = m.row(static_cast<uint32_t>(e));
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

// Pass 1 of one level: permutes order[0, n) so that every range
// ForEachGroup emits holds the items of one node. `Rows` is PfvRows or
// LevelMatrix; `cost` maps a node's bounds to the split objective
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
  // extremes are taken with the same std::min/std::max as
  // GtNode::ComputeBounds. Keeping them in flat lo/hi arrays, not in
  // DimBounds, lets the loop vectorize.
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
      const uint64_t* side = sides + keyed[i].slot * words;
      for (size_t a = 0; a < axes; ++a) {
        const size_t h = (side[a / 64] >> (a % 64)) & 1;
        double* __restrict lo = extremes + (2 * a + h) * 2 * axes;
        double* __restrict hi = lo + axes;
        for (size_t x = 0; x < axes; ++x) {
          lo[x] = std::min(lo[x], row_lo[x]);
          hi[x] = std::max(hi[x], row_hi[x]);
        }
      }
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

}  // namespace

void GaussTree::BulkLoad(const PfvDataset& dataset, size_t threads) {
  BulkLoad(dataset, AllPositions(dataset.size()), threads);
}

void GaussTree::BulkLoad(const PfvDataset& dataset,
                         std::vector<uint32_t> positions, size_t threads) {
  GAUSS_CHECK(dataset.dim() == dim_);
  LoadRows(PfvRows(dataset.objects(), std::move(positions), dim_), threads);
}

void GaussTree::BulkLoad(const std::vector<SoaRun>& runs, size_t threads) {
  size_t n = 0;
  for (const SoaRun& run : runs) {
    GAUSS_CHECK_MSG(run.stride >= run.n,
                    "BulkLoad: a run's stride must hold its objects");
    n += run.n;
  }
  GAUSS_CHECK_MSG(n <= std::numeric_limits<uint32_t>::max(),
                  "BulkLoad indexes objects with 32-bit positions");
  LoadRows(SoaRows(runs, n, dim_), threads);
}

template <typename Rows>
void GaussTree::LoadRows(Rows rows, size_t threads) {
  GAUSS_CHECK_MSG(size_ == 0, "BulkLoad requires an empty tree");
  GAUSS_CHECK_MSG(!store_.finalized(), "BulkLoad requires build mode");
  const size_t n = rows.size();
  if (n == 0) return;

  const auto cost = [this](const std::vector<DimBounds>& bounds) {
    return NodeCost(bounds);
  };
  // Partitions the level's n items into groups of at most `capacity`;
  // returns the permutation that lists each group contiguously.
  auto partition = [&](const auto& level_rows, size_t count,
                       size_t capacity) {
    std::vector<uint32_t> order = AllPositions(count);
    LevelPartitioner(level_rows, order.data(), dim_, capacity, cost)
        .Run(count, threads);
    return order;
  };

  // Nodes are written to the device below, past the pool: drop any frame a
  // Definalize() left of the root page, so no cached copy outlives it.
  pool_->Clear();

  // Leaf level, read in place. After the partition, leaf_order[i] is the
  // handle of the i-th object placed, and the row view is freed before any
  // leaf is created; each leaf copies its objects from where they lie.
  std::vector<uint32_t> leaf_order = partition(rows, n, caps_.leaf);
  rows.Release(&leaf_order);
  std::vector<GtChildEntry> level;
  ForEachGroup(n, caps_.leaf, [&](size_t from, size_t to) {
    // The root-leaf created by the constructor is reused for the very first
    // materialized leaf.
    GtNode* leaf = level.empty() ? store_.GetMutable(root_)
                                 : store_.Create(GtNodeKind::kLeaf);
    for (size_t i = from; i < to; ++i) {
      leaf->pfvs.push_back(rows.Object(leaf_order[i]));
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
