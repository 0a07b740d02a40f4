#ifndef GAUSS_GAUSSTREE_GAUSS_TREE_H_
#define GAUSS_GAUSSTREE_GAUSS_TREE_H_

#include <cstdint>
#include <memory>
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

// Split-axis selection strategy (paper Section 5.3 + ablations, DESIGN.md A1).
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
  // more objects. Opening walks every node page and verifies its checksum.
  // TryOpen returns nullptr with the reason in `*error` when `meta_page`
  // holds no readable Gauss-tree header or a node page is damaged (bad
  // checksum, malformed, or reached twice); Open aborts on those instead.
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
  };
  static HeaderInfo InspectHeader(const void* page_bytes, size_t len);

  // Header version Finalize() writes. Open() also reads the version before
  // it (v2, legacy node pages); InspectHeader callers check
  // ReadsHeaderVersion for a typed version-mismatch report.
  static uint32_t header_version();
  static bool ReadsHeaderVersion(uint32_t version);

  // Page holding the persistent header (root id, dimensionality, options);
  // pass it to Open() to reattach.
  PageId meta_page() const { return meta_page_; }

  // Inserts one pfv (build mode; call Definalize() first if finalized).
  void Insert(const Pfv& pfv);

  // Inserts every object of the dataset one by one.
  void BulkInsert(const PfvDataset& dataset);

  // Bulk-loads an *empty* tree with a top-down recursive median partitioning
  // in (mu, sigma) space, minimizing the paper's hull-integral objective at
  // every cut. Much faster to build and more selective than repeated
  // insertion (bench: ablation_bulkload).
  //
  // Threading: the partitioning hands one half of a split to a helper
  // thread while more than one of `threads` remains (0 counts as 1), so up
  // to `threads` CPUs work on disjoint subtrees. Nodes are then created on
  // the calling thread, leaves first, in the order a sequential
  // right-half-first depth-first loader visits them, so page ids, node
  // contents and the device image are byte-identical for every thread
  // count. The live-ingest merge passes 1: a background rebuild never takes
  // CPUs from the serving workers.
  void BulkLoad(const PfvDataset& dataset, size_t threads = UsableCpus());

  // Serializes all nodes to pages and persists the header so the tree can be
  // reattached with Open(); queries then pay honest page I/O.
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

  // Appends every stored object to `out` (leaf BFS order, deterministic).
  // `out` must share the tree's dimensionality. Works in build or query
  // mode; in query mode it reads through the pool, so it is safe to run
  // concurrently with traversals — the live-ingest merge collects the old
  // base image this way while the epoch is still serving.
  void CollectObjects(PfvDataset* out) const;

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
};

}  // namespace gauss

#endif  // GAUSS_GAUSSTREE_GAUSS_TREE_H_
