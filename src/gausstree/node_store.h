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
//    tree); page ids are pre-allocated on the device so the final layout is
//    fixed. This keeps construction fast without distorting query
//    measurements. A bulk load instead writes every node's page itself
//    (AllocatePages, WritePage) and keeps no node object: such a node is
//    read from its page like a finalized one, and GetMutable() brings it
//    back.
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

  // Build-phase mutable access. A persisted node is loaded back first.
  GtNode* GetMutable(PageId id);

  // Build phase, for a caller that serializes nodes itself (the bulk load):
  // AllocatePages appends `count` newly allocated pages to the tree's pages,
  // in allocation order, and returns them; WritePage writes one page's
  // bytes (page_size of them) straight to the device. The pool must hold no
  // frame of the page (the page is fresh, or the pool was cleared), since
  // the write bypasses it, and the store no in-memory node of it
  // (DropNode). WritePage touches nothing of the store, so writes of
  // different pages may run concurrently.
  std::vector<PageId> AllocatePages(size_t count);
  void WritePage(PageId id, const uint8_t* bytes) const;
  // Build phase: forgets the in-memory node `id`, if any, unwritten.
  void DropNode(PageId id);

  // Materialized node access for build-phase edits and whole-tree walks
  // (statistics, validation, the merge's object collection). Copies an
  // in-memory build node; otherwise loads the page through LoadSoa and
  // aborts if it is damaged.
  void Load(PageId id, GtNode* scratch) const;

  // Query access: points `view` at node `id` — at the fetched cache frame,
  // at the pinned root's planes, or at `view`'s own scratch for an
  // in-memory build node. A fetched frame stays
  // pinned by view->page until the next load or its Release(). Same page
  // accounting as a fetch; the pinned root costs none.
  //
  // The one place that trusts node bytes: a page (finalized or persisted)
  // is checked before it is viewed — its tag and entry count (GtNodeSoa::Validate),
  // its CRC-32C once per cache frame (PageRef::verified), and every child
  // id against the device's page count. A damaged page returns false with
  // the reason in `*why` (when non-null) and leaves `view` holding nothing.
  // An inner node's frame is marked kept when it is verified, so the pool
  // evicts leaves before it (PageRef::kept).
  bool LoadSoa(PageId id, GtNodeSoa* view, const char** why = nullptr) const;

  // Writes every in-memory node straight to its device page (the cache
  // keeps no copy of them) and switches to query mode.
  void Finalize();

  // Loads every node back into memory and switches to build mode.
  void Definalize();

  // Pins one node — the root — in memory for the finalized lifetime:
  // LoadSoa() and Load() serve it without touching the pool. The page is
  // read from the device and checked like any other, and aborts if damaged;
  // no frame of it stays in the pool. Every
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
    return pinned_soa_ != nullptr && id == pinned_id_ ? &pinned_bounds_
                                                      : nullptr;
  }

  // Switches an empty store into query mode over an existing on-device tree
  // rooted at `root` (GaussTree::Open). Walks every root-reachable page on
  // the device itself, past the pool — its own memory where the device
  // lends it (PageDevice::StablePage), else read into one page of scratch —
  // checks each as LoadSoa would, checksum included, and remembers the set
  // for Definalize(). So the walk leaves the pool as it found it, cold when
  // fresh; a query then faults each page in and checks its checksum once,
  // as any miss does. The pages must therefore be on the device (a tree's
  // Finalize puts them there). Returns false, with the reason in `*error`,
  // on a damaged page, a page reached twice, or leaves holding other than
  // `size` objects (the header's count); the store is then unusable.
  bool OpenFinalized(PageId root, size_t size, std::string* error);

  // Every page of the tree's nodes: those a bulk load or insert allocated,
  // or, after OpenFinalized, those the walk reached.
  const std::vector<PageId>& pages() const { return all_pages_; }

  bool finalized() const { return finalized_; }
  // Build nodes held as objects: none after a bulk load or in query mode.
  size_t nodes_in_memory() const { return nodes_.size(); }
  size_t dim() const { return dim_; }
  PageCache* pool() const { return pool_; }

 private:
  // Serializes `node` into `buffer` (one page, zero tail) and writes it to
  // the node's device page.
  void WriteNode(const GtNode& node, std::vector<uint8_t>* buffer) const;

  // Points `view` at node `id`'s page bytes (page_size of them) and returns
  // nullptr, or returns why they must not be viewed: a bad tag or entry
  // count (GtNodeSoa::Validate), a checksum mismatch when `check_crc`, or a
  // child id beyond the device.
  const char* ViewPage(const uint8_t* bytes, PageId id, bool check_crc,
                       GtNodeSoa* view) const;

  // Page `id` as the device holds it: the device's own memory where it
  // lends it, else read into `scratch` (PageWords() words).
  const uint8_t* DevicePage(PageId id, std::vector<uint64_t>* scratch) const;

  // 64-bit words of one page.
  size_t PageWords() const {
    return (pool_->page_size() + sizeof(uint64_t) - 1) / sizeof(uint64_t);
  }

  PageCache* pool_;
  size_t dim_;
  bool finalized_ = false;
  // In-memory build nodes; the rest of all_pages_ is on the device.
  std::unordered_map<PageId, std::unique_ptr<GtNode>> nodes_;
  std::vector<PageId> all_pages_;
  PageId pinned_id_ = kInvalidPageId;
  // The root page's bytes and a view over them that LoadSoa aliases.
  std::vector<uint64_t> pinned_page_;
  std::unique_ptr<GtNodeSoa> pinned_soa_;
  std::vector<DimBounds> pinned_bounds_;
};

}  // namespace gauss

#endif  // GAUSS_GAUSSTREE_NODE_STORE_H_
