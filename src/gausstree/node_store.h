#ifndef GAUSS_GAUSSTREE_NODE_STORE_H_
#define GAUSS_GAUSSTREE_NODE_STORE_H_

#include <memory>
#include <string>
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
//  * Query phase (after Finalize()): every access goes through the page
//    cache — a fetch is a logical page access, a miss is a physical one —
//    and the kernels score the pinned frame in place: a node page is the
//    structure-of-arrays layout they read (GtNodeSoa), so a visit costs a
//    fetch and no copy, exactly what a disk-resident index pays.
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

  // Materialized node access for build-phase edits and whole-tree walks
  // (statistics, validation, the merge's object collection). In the build
  // phase copies the in-memory object; after Finalize() loads the page
  // through LoadSoa and aborts if it is damaged.
  void Load(PageId id, GtNode* scratch) const;

  // Query access: points `view` at node `id` — at the fetched cache frame
  // of a v3 page, at the pinned root's planes, or at `view`'s own scratch
  // for a legacy page or a build-phase node. A fetched frame stays pinned
  // by view->page until the next load or its Release(). Same page
  // accounting as a fetch; the pinned root costs none.
  //
  // The one place that trusts node bytes: a finalized page is checked
  // before it is viewed — its tag and entry count (GtNodeSoa::Validate),
  // its CRC-32C once per cache frame (PageRef::verified), and every child
  // id against the device's page count. A damaged page returns false with
  // the reason in `*why` (when non-null) and leaves `view` holding nothing.
  bool LoadSoa(PageId id, GtNodeSoa* view, const char** why = nullptr) const;

  // Writes every node straight to its device page (the cache keeps no copy
  // of them) and switches to query mode.
  void Finalize();

  // Loads every node back into memory and switches to build mode.
  void Definalize();

  // Pins one node — the root — in memory for the finalized lifetime:
  // LoadSoa() and Load() serve it without touching the pool. Every
  // traversal starts at the root twice (the reference-scale computation,
  // then the first expansion), so an unpinned root costs two logical reads
  // per query per tree — the dominant fixed I/O tax of a sharded database,
  // paid N times per query. One page of memory, one read at pin time.
  // Definalize() drops the pin (build mode mutates nodes in place).
  void PinRoot(PageId id);

  // The pinned root's MBR (GtNode::ComputeBounds), computed once by
  // PinRoot so a traversal's reference scale needs no per-query node copy.
  // nullptr unless `id` is the pinned root; empty for an empty root.
  const std::vector<DimBounds>* PinnedBounds(PageId id) const {
    return pinned_ != nullptr && id == pinned_id_ ? &pinned_bounds_ : nullptr;
  }

  // Switches an empty store into query mode over an existing on-device tree
  // rooted at `root` (GaussTree::Open). Walks every root-reachable page
  // through LoadSoa — so each page's checksum is verified — and remembers
  // the set for Definalize(). `legacy_pages` admits the pre-v3 row format
  // (trees whose header predates it); a v3 tree holds only v3 pages. Returns
  // false, with the reason in `*error`, on a damaged page or a page reached
  // twice; the store is then unusable.
  bool OpenFinalized(PageId root, bool legacy_pages, std::string* error);

  bool finalized() const { return finalized_; }
  size_t node_count() const;
  size_t dim() const { return dim_; }
  PageCache* pool() const { return pool_; }

 private:
  PageCache* pool_;
  size_t dim_;
  bool finalized_ = false;
  // Whether finalized pages may be in the legacy format (see OpenFinalized).
  bool legacy_pages_ = false;
  std::unordered_map<PageId, std::unique_ptr<GtNode>> nodes_;
  size_t finalized_count_ = 0;
  std::vector<PageId> all_pages_;
  PageId pinned_id_ = kInvalidPageId;
  std::unique_ptr<GtNode> pinned_;
  // The root page's bytes and a view over them (or over its own scratch,
  // for a legacy root) that LoadSoa aliases.
  std::vector<uint64_t> pinned_page_;
  std::unique_ptr<GtNodeSoa> pinned_soa_;
  std::vector<DimBounds> pinned_bounds_;
};

}  // namespace gauss

#endif  // GAUSS_GAUSSTREE_NODE_STORE_H_
