#ifndef GAUSS_GAUSSTREE_NODE_H_
#define GAUSS_GAUSSTREE_NODE_H_

#include <cstdint>
#include <vector>

#include "math/hull.h"
#include "pfv/pfv.h"
#include "storage/page.h"
#include "storage/page_cache.h"

namespace gauss {

// Inner-node entry: the 2d-dimensional minimum bounding rectangle over the
// (mu, sigma) parameter space of one child subtree, plus the child's page id
// and the number of pfv stored below it (needed for the n * N_check /
// n * N_hat denominator bounds of paper Section 5.2.2).
struct GtChildEntry {
  PageId child = kInvalidPageId;
  uint32_t count = 0;
  std::vector<DimBounds> bounds;

  // Extends the MBR to cover `other`.
  void Merge(const GtChildEntry& other);
  // Extends the MBR to cover a single pfv.
  void Include(const Pfv& pfv);
  bool Contains(const Pfv& pfv) const;
};

enum class GtNodeKind : uint8_t { kLeaf = 0, kInner = 1 };

// A Gauss-tree node as the build phase edits it. Leaves hold pfv records;
// inner nodes hold child MBR entries. Nodes serialize to fixed-size pages
// in the node page format (see GtNodeSoa and node.cc); queries read those
// pages through GtNodeSoa views and never materialize a GtNode.
struct GtNode {
  PageId id = kInvalidPageId;
  GtNodeKind kind = GtNodeKind::kLeaf;
  std::vector<Pfv> pfvs;                 // leaf payload
  std::vector<GtChildEntry> children;    // inner payload

  bool leaf() const { return kind == GtNodeKind::kLeaf; }
  size_t EntryCount() const { return leaf() ? pfvs.size() : children.size(); }

  // Total number of pfv in this subtree.
  uint32_t SubtreeCount() const;

  // Parameter-space MBR over the node's contents (d DimBounds).
  std::vector<DimBounds> ComputeBounds(size_t dim) const;

  // Serialized size in bytes for the given dimensionality.
  size_t SerializedSize(size_t dim) const;

  // Serializes into `page` in the current (v3) format, checksum included.
  // `page` must hold at least SerializedSize bytes; bytes past them are
  // left untouched.
  void Serialize(uint8_t* page, size_t dim) const;

  // Deserializes a node from page bytes (GtNodeSoa::Decode). `id` is not
  // stored on the page and must be supplied by the caller. Trusts the
  // bytes: GtNodeStore validates pages before decoding.
  static GtNode Deserialize(const uint8_t* page, size_t dim, PageId id);
};

// The node page writers: the only code that writes the page format.
// GtNode::Serialize writes through them, and the bulk load
// (gausstree/bulk_load.cc), which holds no GtNode, calls them directly.
// Each writes to `page` the node of n entries, checksum included, leaves
// bytes past them untouched, and returns how many it wrote. The node's MBR
// goes to lo and hi, each 2d doubles (the mu axes, then the sigma axes),
// by the same fold as GtNode::ComputeBounds, so even a signed zero or a
// NaN comes out the same.
//
// One object of a leaf: its mu and sigma along dimension i are mu[i *
// stride] and sigma[i * stride] — stride 1 for a Pfv, a run's stride for an
// object of SoA planes.
struct GtLeafObject {
  uint64_t id;
  const double* mu;
  const double* sigma;
  size_t stride;
};
size_t WriteLeafPage(const GtLeafObject* objects, size_t n, size_t dim,
                     uint8_t* page, double* lo, double* hi);

// One child of an inner node: its page, its subtree's object count and its
// MBR as 2d lower edges `lo` and 2d upper edges `hi`, in the axis order
// above.
struct GtChildRef {
  PageId child;
  uint32_t count;
  const double* lo;
  const double* hi;
};
size_t WriteInnerPage(const GtChildRef* children, size_t n, size_t dim,
                      uint8_t* page, double* lo, double* hi);

// Structure-of-arrays view of one node's entries, the layout the batch
// kernels in math/kernels.h read: per-dimension planes of `stride` doubles,
// entry j of dimension i at plane[i * stride + j], stride = n.
//
// The view points at a v3 node page itself — the page *is* this layout
// (PAX-style minipages, Ailamaki et al., VLDB 2001):
//
//   header  [u8 tag][u8 0][u16 n][u32 crc32c]     tag 2 = leaf, 3 = inner
//   leaf    [n x u64 id][dim x mu plane][dim x sigma plane]
//   inner   [n x u32 child][n x u32 count]
//           [dim x mu_lo][dim x mu_hi][dim x sigma_lo][dim x sigma_hi]
//
// every plane n doubles. The CRC-32C (storage/crc32c.h) covers header bytes
// 0-3 and the body above, not the page's unused tail. Stride n rather than
// the capacity keeps every offset 8-aligned and the body self-describing.
// (Tree header v2 wrote row-record pages; only GaussDb::Upgrade reads them.)
//
// So the pointers below lead into one of three places: a cache frame the
// view pins through `page` (GtNodeStore::LoadSoa), the view's own `owned`
// scratch (in-memory build nodes, FromNode), or caller memory (Decode on a
// page buffer the caller keeps alive).
struct GtNodeSoa {
  PageId id = kInvalidPageId;
  GtNodeKind kind = GtNodeKind::kLeaf;
  size_t n = 0;       // entry count
  size_t dim = 0;
  size_t stride = 0;  // doubles per plane (= n)
  const uint64_t* ids = nullptr;     // leaf: n pfv ids
  const PageId* children = nullptr;  // inner: n child page ids
  const uint32_t* counts = nullptr;  // inner: n subtree counts
  const double* planes = nullptr;    // leaf: 2*dim planes; inner: 4*dim

  // Pin on the cache frame the pointers lead into; empty otherwise.
  PageRef page;
  // Page scratch for build nodes (FromNode), reused across loads.
  std::vector<uint64_t> owned;

  bool leaf() const { return kind == GtNodeKind::kLeaf; }

  // Leaf plane groups.
  const double* mu() const { return planes; }
  const double* sigma() const { return planes + dim * stride; }
  // Inner plane groups.
  const double* mu_lo() const { return planes; }
  const double* mu_hi() const { return planes + dim * stride; }
  const double* sigma_lo() const { return planes + 2 * dim * stride; }
  const double* sigma_hi() const { return planes + 3 * dim * stride; }

  // Points `out` at a serialized page, viewed in place: the caller keeps
  // `page` alive while it reads `out`. Trusts the bytes (see Validate).
  // Drops any pin `out` held.
  static void Decode(const uint8_t* page, size_t dim, PageId id,
                     GtNodeSoa* out);

  // Why the page_size bytes at `page` must not be decoded, or nullptr when
  // they may: an unknown tag, a nonzero reserved byte, an entry count the
  // page cannot hold, or — when `check_crc` — a checksum mismatch. Child
  // ids are the caller's to check: only the device knows how many pages
  // exist.
  static const char* Validate(const uint8_t* page, uint32_t page_size,
                              size_t dim, bool check_crc);

  // Views an in-memory node (build-mode NodeStore), through out->owned.
  static void FromNode(const GtNode& node, size_t dim, GtNodeSoa* out);

  // Borrows `other`'s pointers without copying planes or pinning: the view
  // is valid while `other` is unchanged (the store's pinned root).
  void Alias(const GtNodeSoa& other);

  // The node the view describes.
  GtNode ToNode() const;
};

// Per-node-type capacities derived from the page size.
struct GtCapacities {
  size_t leaf = 0;        // max pfv records per leaf
  size_t inner = 0;       // max child entries per inner node
  size_t leaf_min = 0;    // min fill (non-root)
  size_t inner_min = 0;

  // Aborts unless Fits(page_size, dim).
  static GtCapacities ForPageSize(uint32_t page_size, size_t dim);
  // Whether a page holds two entries of every node kind at `dim` > 0.
  static bool Fits(uint32_t page_size, size_t dim);
};

}  // namespace gauss

#endif  // GAUSS_GAUSSTREE_NODE_H_
