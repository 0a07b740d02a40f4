#ifndef GAUSS_GAUSSTREE_NODE_STORE_H_
#define GAUSS_GAUSSTREE_NODE_STORE_H_

#include <memory>
#include <string>
#include <vector>

#include "gausstree/node.h"
#include "storage/page_cache.h"

namespace gauss {

// Query access to a Gauss-tree's node pages. The store is query-only: a
// build writes every node's page itself (GaussTree::BulkLoad through
// AllocatePages and WritePage) and keeps no node object, so a node is always
// read from its page. Every access goes through the page cache — a fetch is
// a logical page access, a miss is a physical one — and the kernels score
// the pinned frame in place: a node page is the structure-of-arrays layout
// they read (GtNodeSoa), so a visit costs a fetch and no copy, exactly what
// a disk-resident index pays. Finalize (GaussTree::Finalize, or Open)
// pins the root in memory (PinRoot).
class GtNodeStore {
 public:
  GtNodeStore(PageCache* pool, size_t dim);

  GtNodeStore(const GtNodeStore&) = delete;
  GtNodeStore& operator=(const GtNodeStore&) = delete;

  // For a caller that serializes nodes itself (the bulk load), before the
  // root is pinned: AllocatePages appends `count` newly allocated pages to
  // the tree's pages, in allocation order, and returns them; WritePage
  // writes one page's bytes (page_size of them) straight to the device. The
  // pool must hold no frame of the page (the page is fresh, or the pool was
  // cleared), since the write bypasses it. WritePage touches nothing of the
  // store, so writes of different pages may run concurrently.
  std::vector<PageId> AllocatePages(size_t count);
  void WritePage(PageId id, const uint8_t* bytes) const;

  // Materialized node access for whole-tree walks (statistics,
  // validation): loads the page through LoadSoa and aborts if it is
  // damaged.
  void Load(PageId id, GtNode* scratch) const;

  // Query access: points `view` at node `id` — at the fetched cache frame,
  // or at the pinned root's planes. A fetched frame stays pinned by
  // view->page until the next load or its Release(). Same page accounting
  // as a fetch; the pinned root costs none.
  //
  // The one place that trusts node bytes: a page is checked before it is
  // viewed — its tag and entry count (GtNodeSoa::Validate),
  // its CRC-32C once per cache frame (PageRef::verified), and every child
  // id against the device's page count. A damaged page returns false with
  // the reason in `*why` (when non-null) and leaves `view` holding nothing.
  // An inner node's frame is marked kept when it is verified, so the pool
  // evicts leaves before it (PageRef::kept).
  bool LoadSoa(PageId id, GtNodeSoa* view, const char** why = nullptr) const;

  // Pins one node — the root — in memory for the finalized lifetime:
  // LoadSoa() and Load() serve it without touching the pool. The page is
  // read from the device and checked like any other, and aborts if damaged;
  // no frame of it stays in the pool. Every
  // traversal starts at the root twice (the reference-scale computation,
  // then the first expansion), so an unpinned root costs two logical reads
  // per query per tree — the dominant fixed I/O tax of a sharded database,
  // paid N times per query. One page of memory, one read at pin time.
  // The store is finalized from then on: it allocates and writes no more
  // pages.
  void PinRoot(PageId id);

  // The pinned root's MBR (GtNode::ComputeBounds), computed once by
  // PinRoot so a traversal's reference scale needs no per-query node copy.
  // nullptr unless `id` is the pinned root; empty for an empty root.
  const std::vector<DimBounds>* PinnedBounds(PageId id) const {
    return pinned_soa_ != nullptr && id == pinned_id_ ? &pinned_bounds_
                                                      : nullptr;
  }

  // Attaches an empty store to an existing on-device tree
  // rooted at `root` (GaussTree::Open). Walks every root-reachable page on
  // the device itself, past the pool — its own memory where the device
  // lends it (PageDevice::StablePage), else read into one page of scratch —
  // checks each as LoadSoa would, checksum included, and remembers the set
  // (pages()). So the walk leaves the pool as it found it, cold when
  // fresh; a query then faults each page in and checks its checksum once,
  // as any miss does. The pages must therefore be on the device (a tree's
  // Finalize puts them there). Returns false, with the reason in `*error`,
  // on a damaged page, a page reached twice, or leaves holding other than
  // `size` objects (the header's count); the store is then unusable.
  bool OpenFinalized(PageId root, size_t size, std::string* error);

  // Every page of the tree's nodes: those the tree allocated, or, after
  // OpenFinalized, those the walk reached.
  const std::vector<PageId>& pages() const { return all_pages_; }

  // True once the root is pinned (PinRoot).
  bool finalized() const { return pinned_soa_ != nullptr; }
  size_t dim() const { return dim_; }
  PageCache* pool() const { return pool_; }

 private:
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
  std::vector<PageId> all_pages_;
  PageId pinned_id_ = kInvalidPageId;
  // The root page's bytes and a view over them that LoadSoa aliases.
  std::vector<uint64_t> pinned_page_;
  std::unique_ptr<GtNodeSoa> pinned_soa_;
  std::vector<DimBounds> pinned_bounds_;
};

}  // namespace gauss

#endif  // GAUSS_GAUSSTREE_NODE_STORE_H_
