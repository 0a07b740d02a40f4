#ifndef GAUSS_GAUSSTREE_NODE_STORE_H_
#define GAUSS_GAUSSTREE_NODE_STORE_H_

#include <memory>
#include <unordered_map>
#include <vector>

#include "gausstree/node.h"
#include "storage/page_cache.h"

namespace gauss {

// Owns the mapping from page ids to Gauss-tree nodes.
//
// Two phases:
//  * Build phase: nodes live as in-memory objects (a write-back cache of the
//    whole tree); page ids are pre-allocated on the device so the final
//    layout is fixed. This keeps construction fast without distorting query
//    measurements.
//  * Query phase (after Finalize()): every access goes through the buffer
//    pool — a fetch is a logical page access, a miss is a physical one — and
//    the node is deserialized from page bytes, exactly what a disk-resident
//    index pays.
//
// Definalize() reloads every node into memory to resume building (dynamic
// insert after a finalized load).
class GtNodeStore {
 public:
  GtNodeStore(PageCache* pool, size_t dim);

  GtNodeStore(const GtNodeStore&) = delete;
  GtNodeStore& operator=(const GtNodeStore&) = delete;

  // Creates a fresh node of the given kind with a newly allocated page.
  GtNode* Create(GtNodeKind kind);

  // Build-phase mutable access.
  GtNode* GetMutable(PageId id);

  // Query access. In the build phase returns the in-memory object without
  // touching the pool; after Finalize() fetches + deserializes.
  // The returned value is a copy in the finalized case; `scratch` avoids
  // reallocation across calls.
  void Load(PageId id, GtNode* scratch) const;

  // Query access shaped for the batch kernels: decodes the page straight
  // into `scratch`'s SoA planes (math/kernels.h layout) without materializing
  // a GtNode. Same page-accounting semantics as Load(); the pinned root is
  // served from a pre-decoded SoA copy.
  void LoadSoa(PageId id, GtNodeSoa* scratch) const;

  // Serializes every node to its page and switches to query mode.
  void Finalize();

  // Loads every node back into memory and switches to build mode.
  void Definalize();

  // Pins one node — the root — in memory for the finalized lifetime:
  // Load() serves it by copy without touching the pool. Every traversal
  // starts at the root twice (the reference-scale computation, then the
  // first expansion), so an unpinned root costs two logical reads per query
  // per tree — the dominant fixed I/O tax of a sharded database, paid N
  // times per query. One page of memory, one read at pin time.
  // Definalize() drops the pin (build mode mutates nodes in place).
  void PinRoot(PageId id);

  // The pinned root's MBR (GtNode::ComputeBounds), computed once by
  // PinRoot so a traversal's reference scale needs no per-query node copy.
  // nullptr unless `id` is the pinned root; empty for an empty root.
  const std::vector<DimBounds>* PinnedBounds(PageId id) const {
    return pinned_ != nullptr && id == pinned_id_ ? &pinned_bounds_ : nullptr;
  }

  // Switches an empty store into query mode over an existing on-device tree
  // whose node pages are `pages` (the root-reachable set). Used by
  // GaussTree::Open.
  void OpenFinalized(std::vector<PageId> pages);

  bool finalized() const { return finalized_; }
  size_t node_count() const;
  size_t dim() const { return dim_; }
  PageCache* pool() const { return pool_; }

 private:
  PageCache* pool_;
  size_t dim_;
  bool finalized_ = false;
  std::unordered_map<PageId, std::unique_ptr<GtNode>> nodes_;
  size_t finalized_count_ = 0;
  std::vector<PageId> all_pages_;
  PageId pinned_id_ = kInvalidPageId;
  std::unique_ptr<GtNode> pinned_;
  std::unique_ptr<GtNodeSoa> pinned_soa_;
  std::vector<DimBounds> pinned_bounds_;
};

}  // namespace gauss

#endif  // GAUSS_GAUSSTREE_NODE_STORE_H_
