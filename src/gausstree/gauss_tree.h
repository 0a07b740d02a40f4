#ifndef GAUSS_GAUSSTREE_GAUSS_TREE_H_
#define GAUSS_GAUSSTREE_GAUSS_TREE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/cpus.h"
#include "gausstree/node.h"
#include "gausstree/node_store.h"
#include "math/hull_integral.h"
#include "math/sigma_policy.h"
#include "pfv/pfv.h"
#include "storage/page_cache.h"

namespace gauss {

// Split-axis selection strategy (paper Section 5.3; ablation A1,
// bench/ablation_split.cc, compares them).
enum class SplitStrategy {
  // The paper's strategy: tentative median split along every mu- and every
  // sigma-dimension; keep the split minimizing the summed hull integrals
  // integral(N_hat) of the two resulting nodes.
  kHullIntegral,
  // Classic R-tree-style objective: minimize summed parameter-space volume.
  kVolume,
  // Only mu-dimensions are considered (what a conventional feature-vector
  // index would do); cost is still the hull integral.
  kMuOnly,
};

struct GaussTreeOptions {
  SigmaPolicy sigma_policy = SigmaPolicy::kConvolution;
  IntegralMethod integral_method = IntegralMethod::kErf;
  SplitStrategy split_strategy = SplitStrategy::kHullIntegral;
};

// Cost of a parameter-space footprint under `options`' split strategy: the
// hull-integral access probability (paper Section 5.3), or plain volume for
// SplitStrategy::kVolume. What the split and the insertion rule minimize.
double FootprintCost(const std::vector<DimBounds>& bounds,
                     const GaussTreeOptions& options);

// The paper's Section 5.3 insertion rule over candidate subtrees: among the
// entries whose MBR contains `pfv`, the one with the smallest cost (the most
// selective); if none contains it, the one whose cost grows least. Ties on
// (primary, cost) go to the lowest index. An entry with count 0 has no
// footprint: it contains nothing, costs 0, and grows by the cost of `pfv`
// alone. GaussTree::ChooseLeaf applies the rule at every inner node; a
// sharded GaussDb applies it once more above the trees, to the shards' root
// entries (api/partitioner.h). `entries` must not be empty.
size_t ChooseSubtree(const std::vector<GtChildEntry>& entries, const Pfv& pfv,
                     const GaussTreeOptions& options);

// Aggregate structural information, used by tests/benches and Validate().
struct GaussTreeStats {
  size_t height = 0;        // 1 = root is a leaf
  size_t node_count = 0;
  size_t inner_nodes = 0;
  size_t leaf_nodes = 0;
  size_t object_count = 0;
  double avg_leaf_fill = 0.0;
  double avg_inner_fill = 0.0;
};

// The Gauss-tree (paper Section 5): a balanced R-tree-family index over the
// parameter space (mu_i, sigma_i) of probabilistic feature vectors, with
// conservative Gaussian hull approximations driving query processing.
//
// Most applications should not wire a GaussTree by hand — the GaussDb façade
// (api/gauss_db.h) owns the device/pool/tree lifecycle and serves queries
// concurrently:
//   GaussDb db = GaussDb::CreateInMemory(dim);
//   db.Build(dataset);                     // or db.Insert(pfv) per object
//   Session session = db.Serve();
//   auto resp = session.Submit(Query::Mliq(q, k)).get();
//
// This class remains the documented low-level API for callers managing their
// own storage stack (experiments, ablations, custom caches):
//   ShardedBufferPool pool(&device, capacity, /*num_shards=*/1);
//   GaussTree tree(&pool, dim);
//   for (...) tree.Insert(pfv);
//   tree.Finalize();                       // serialize to pages
//   auto top = QueryMliq(tree, q, k);      // see mliq.h
//   auto hits = QueryTiq(tree, q, 0.2);    // see tiq.h
class GaussTree {
 public:
  GaussTree(PageCache* pool, size_t dim, GaussTreeOptions options = {});

  GaussTree(const GaussTree&) = delete;
  GaussTree& operator=(const GaussTree&) = delete;

  // Reopens a previously finalized tree from its meta page (persisted by
  // Finalize()). The tree opens in query mode; call Definalize() to insert
  // more objects. Opening reads the header and walks every node page on the
  // device, past the pool, verifying each checksum: the pool is left as it
  // was, cold when fresh (GtNodeStore::OpenFinalized).
  // TryOpen returns nullptr with the reason in `*error` when `meta_page`
  // holds no v3 header for this page size, a malformed one (HeaderInfo),
  // a damaged node page (bad checksum, malformed, reached twice) or leaves
  // disagreeing with the header's object count; Open aborts instead.
  static std::unique_ptr<GaussTree> Open(PageCache* pool, PageId meta_page);
  static std::unique_ptr<GaussTree> TryOpen(PageCache* pool, PageId meta_page,
                                            std::string* error);

  // Non-aborting peek at a would-be header page, for callers (GaussDb's
  // typed OpenFile/OpenDirectory error paths) that must report a corrupt or
  // foreign file to *their* caller instead of taking the process down.
  // `len` is the number of valid bytes at `page_bytes` (a short page yields
  // valid_magic = false). Open() remains the one place that trusts a header.
  struct HeaderInfo {
    bool valid_magic = false;  // page starts with the Gauss-tree magic
    uint32_t version = 0;
    uint32_t page_size = 0;    // page size the tree was serialized with
    uint32_t dim = 0;
    uint64_t size = 0;         // object count
    PageId root = kInvalidPageId;
    GaussTreeOptions options;
    // Why the fields describe no tree Finalize() could have written — a dim
    // whose entries do not fit two to a page (dim 0 included), or an option
    // byte out of range — or nullptr; `options` is meaningless unless null.
    const char* malformed = nullptr;
  };
  static HeaderInfo InspectHeader(const void* page_bytes, size_t len);

  // Header version Finalize() writes, and the only one Open() reads.
  static uint32_t header_version();

  // Page holding the persistent header (root id, dimensionality, options);
  // pass it to Open() to reattach.
  PageId meta_page() const { return meta_page_; }

  // Inserts one pfv (build mode; call Definalize() first if finalized).
  void Insert(const Pfv& pfv);

  // Inserts every object of the dataset one by one.
  void BulkInsert(const PfvDataset& dataset);

  // Bulk-loads an *empty* tree with the objects dataset[positions[i]], by a
  // top-down recursive median partitioning in (mu, sigma) space, minimizing
  // the paper's hull-integral objective at every cut. Much faster to build
  // and more selective than repeated insertion (bench: ablation_bulkload).
  //
  // Subsets: the objects are read in place through `positions` (a sharded
  // GaussDb::Build passes each shard's SplitSpatial part), so no pfv is
  // copied before its leaf takes it. The tree equals one loaded from a
  // dataset holding exactly those objects in list order: the same nodes,
  // pages and image bytes. A position >= dataset.size() aborts. The list
  // is taken by value and freed before the leaves are written.
  //
  // Threading: the partitioning hands one half of a split to a helper
  // thread while more than one of `threads` remains (0 counts as 1), so up
  // to `threads` CPUs work on disjoint subtrees. Then the leaves are written
  // on up to `threads` threads, each a contiguous run of them, and the
  // upper levels on the calling thread. Node k, counted leaves first in the
  // order a sequential right-half-first depth-first loader visits them,
  // takes the k-th page of the load, so page ids, node contents and the
  // device image are byte-identical for every thread count. The live-ingest
  // merge passes 1: a background rebuild never takes CPUs from the serving
  // workers.
  //
  // Memory: each node is written to its device page as soon as it is
  // complete, straight from where its objects or children lie (no GtNode,
  // no pfv copied), so the tree stays in build mode with no node in memory,
  // and reads, Validate() and queries go to the pages. The leaf partition
  // reads the objects in place through one 16 B row per object (here a
  // (mu, sigma) pointer pair) and copies no key. Besides the rows, it holds
  // the permutation (4 B per object) and the split scratch (24 B per item
  // of each thread's first range). The rows and the position list are freed
  // once the leaf order is known; what stays is a node's parent entry, 32d
  // + 8 B per node of the level being built. The rows, permutations, split
  // scratch, level entries and leaf page buffers are mapped from the kernel
  // and unmapped when done (common/mapped_array.h), so a load on a helper
  // thread leaves next to nothing in that thread's malloc arena.
  void BulkLoad(const PfvDataset& dataset, std::vector<uint32_t> positions,
                size_t threads = UsableCpus());
  // The whole dataset: positions 0, 1, ..., dataset.size() - 1.
  void BulkLoad(const PfvDataset& dataset, size_t threads = UsableCpus());

  // A run of objects stored as structure-of-arrays planes: object j < n has
  // id ids[j], and its axis a — the dim() mu axes, then the dim() sigma
  // axes — at planes[a * stride + j]. A leaf page (GtNodeSoa: stride n) and
  // a DeltaTree prefix (stride capacity) are such runs.
  struct SoaRun {
    const uint64_t* ids = nullptr;
    const double* planes = nullptr;
    size_t stride = 0;
    size_t n = 0;
  };
  // Bulk-loads an empty tree with the objects of `runs`, in run order, read
  // in place: the same tree, pages and image bytes as a load of a dataset
  // holding those objects in that order. The runs' memory must stay valid
  // and unchanged until the load returns. The live-ingest merge passes the
  // old image's leaf pages, pinned in the old epoch's cache, then the delta
  // prefix (api/serving_engine.h), so it holds one copy of the base: the
  // pages themselves. The serving cache then holds every leaf of the old
  // image at once; when it is smaller than that, it grows past its budget
  // until the load ends, by at most the image's leaf pages.
  void BulkLoad(const std::vector<SoaRun>& runs, size_t threads = UsableCpus());

  // Allocates now the pages the next BulkLoad, which must load `n`
  // objects, will write, besides the root page the constructor allocated.
  // How many there are depends only on `n` and the node capacities. Trees
  // sharing one device that reserve one after another then load side by
  // side with the page ids, and so the image, of loads run one after
  // another in reservation order (GaussDb::Build). Without a reservation
  // the load allocates its pages when it starts.
  void ReserveBulkLoad(size_t n);

  // Wall time of the last bulk load's phases: the leaf partition, the
  // leaves written, and the upper levels partitioned and written (bench:
  // ablation_bulkload).
  struct BulkLoadTimes {
    double partition_s = 0.0;
    double leaves_s = 0.0;
    double upper_s = 0.0;
  };
  const BulkLoadTimes& bulk_load_times() const { return load_times_; }

  // Serializes the nodes still in memory to their pages and persists the
  // header so the tree can be reattached with Open(); queries then pay
  // honest page I/O.
  void Finalize();
  // Reloads nodes into memory to allow further Insert calls.
  void Definalize() { store_.Definalize(); }

  size_t size() const { return size_; }
  size_t dim() const { return dim_; }
  PageId root() const { return root_; }
  // The whole tree as one parent entry: root id, object count and root MBR
  // (count 0 and inverted infinite bounds when empty). Works in build or
  // query mode; a pinned root costs no pool fetch.
  GtChildEntry RootEntry() const;
  const GaussTreeOptions& options() const { return options_; }
  const GtCapacities& capacities() const { return caps_; }
  const GtNodeStore& store() const { return store_; }
  PageCache* pool() const { return pool_; }

  // Structural statistics (walks the whole tree; build or query mode).
  GaussTreeStats ComputeStats() const;

  // Checks every structural invariant (balance, fill factors, MBR
  // containment, subtree counts); aborts on violation. Test hook.
  void Validate() const;

 private:
  friend class GaussTreeCrawler;  // test/bench access to internals

  // Open() constructor: attaches to an existing finalized tree.
  GaussTree(PageCache* pool, size_t dim, GaussTreeOptions options,
            PageId meta_page, PageId root, size_t size);

  // Writes the persistent header to the meta page.
  void WriteMetaPage();

  // The one bulk-load body, over the leaf rows of bulk_load.cc (PfvRows,
  // SoaRows).
  template <typename Rows>
  void LoadRows(Rows rows, size_t threads);

  // The pages a load of `n` objects writes: the reserved ones, else newly
  // allocated.
  std::vector<PageId> TakeBulkLoadPages(size_t n);

  // Descends to the leaf the pfv should go to; fills `path` with the page
  // ids from root to leaf and `slots` with child indices taken at each inner
  // node (paper Section 5.3 insertion rules).
  PageId ChooseLeaf(const Pfv& pfv, std::vector<PageId>* path,
                    std::vector<size_t>* slots);

  // Cost of a node's parameter-space footprint under the active strategy.
  double NodeCost(const std::vector<DimBounds>& bounds) const;

  // Splits the overflowing node, redistributing entries by the best median
  // split; returns the entry describing the new sibling.
  GtChildEntry SplitNode(GtNode* node);

  // Handles overflow propagation along `path` after inserting into `leaf_id`.
  void HandleOverflow(const std::vector<PageId>& path,
                      const std::vector<size_t>& slots);

  // Recomputes the parent-entry MBR/count for `child_slot` of `parent`.
  void RefreshParentEntry(GtNode* parent, size_t child_slot);

  PageCache* pool_;
  size_t dim_;
  GaussTreeOptions options_;
  GtCapacities caps_;
  GtNodeStore store_;
  PageId meta_page_ = kInvalidPageId;
  PageId root_;
  size_t size_ = 0;
  struct Reservation {
    size_t objects;
    std::vector<PageId> pages;
  };
  std::optional<Reservation> reservation_;
  BulkLoadTimes load_times_;
};

}  // namespace gauss

#endif  // GAUSS_GAUSSTREE_GAUSS_TREE_H_
