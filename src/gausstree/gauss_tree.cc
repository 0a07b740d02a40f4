#include "gausstree/gauss_tree.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <deque>
#include <limits>
#include <memory>
#include <numeric>
#include <vector>

#include "common/macros.h"

namespace gauss {

namespace {

// Persistent header written to the meta page on Finalize().
constexpr uint64_t kGaussTreeMagic = 0x47415553'54524545ull;  // "GAUSSTREE"
// v2: added page_size. v3: node pages in the SoA format with a CRC-32C
// (gausstree/node.h). Open() reads v3 only; GaussDb::Upgrade rewrites a v2
// tree, whose header has this same layout.
constexpr uint32_t kGaussTreeVersion = 3;

struct MetaPageLayout {
  uint64_t magic;
  uint32_t version;
  uint32_t dim;
  uint64_t size;
  PageId root;
  uint8_t sigma_policy;
  uint8_t integral_method;
  uint8_t split_strategy;
  // Page size the tree was serialized with. Checked on Open(): a device
  // opened with a different page size would map every PageId to the wrong
  // byte offset and misread nodes as garbage, so fail loudly instead.
  uint32_t page_size;
};

// Parameter-space MBR entry describing a whole node.
GtChildEntry MakeEntry(const GtNode& node, size_t dim) {
  GtChildEntry entry;
  entry.child = node.id;
  entry.count = node.SubtreeCount();
  entry.bounds = node.ComputeBounds(dim);
  return entry;
}

// Plain parameter-space volume with an epsilon guard against degenerate
// (zero-width) extents; used by the kVolume ablation strategy only.
double VolumeCost(const std::vector<DimBounds>& bounds) {
  constexpr double kEps = 1e-6;
  double volume = 1.0;
  for (const DimBounds& b : bounds) {
    volume *= (b.mu_hi - b.mu_lo + kEps) * (b.sigma_hi - b.sigma_lo + kEps);
  }
  return volume;
}

}  // namespace

GaussTree::GaussTree(PageCache* pool, size_t dim, GaussTreeOptions options)
    : pool_(pool),
      dim_(dim),
      options_(options),
      caps_(GtCapacities::ForPageSize(pool->device()->page_size(), dim)),
      store_(pool, dim) {
  meta_page_ = pool->device()->Allocate();
  root_ = store_.Create(GtNodeKind::kLeaf)->id;
}

GaussTree::GaussTree(PageCache* pool, size_t dim, GaussTreeOptions options,
                     PageId meta_page, PageId root, size_t size)
    : pool_(pool),
      dim_(dim),
      options_(options),
      caps_(GtCapacities::ForPageSize(pool->device()->page_size(), dim)),
      store_(pool, dim),
      meta_page_(meta_page),
      root_(root),
      size_(size) {}

void GaussTree::WriteMetaPage() {
  MetaPageLayout meta;
  std::memset(&meta, 0, sizeof(meta));
  meta.magic = kGaussTreeMagic;
  meta.version = kGaussTreeVersion;
  meta.dim = static_cast<uint32_t>(dim_);
  meta.size = size_;
  meta.root = root_;
  meta.sigma_policy = static_cast<uint8_t>(options_.sigma_policy);
  meta.integral_method = static_cast<uint8_t>(options_.integral_method);
  meta.split_strategy = static_cast<uint8_t>(options_.split_strategy);
  meta.page_size = pool_->device()->page_size();
  std::vector<uint8_t> page(pool_->device()->page_size(), 0);
  std::memcpy(page.data(), &meta, sizeof(meta));
  pool_->WritePage(meta_page_, page.data());
}

void GaussTree::Finalize() {
  store_.Finalize();
  WriteMetaPage();
  pool_->FlushAll();
  store_.PinRoot(root_);
}

GaussTree::HeaderInfo GaussTree::InspectHeader(const void* page_bytes,
                                               size_t len) {
  HeaderInfo info;
  if (page_bytes == nullptr || len < sizeof(MetaPageLayout)) return info;
  MetaPageLayout meta;
  std::memcpy(&meta, page_bytes, sizeof(meta));
  info.valid_magic = meta.magic == kGaussTreeMagic;
  if (!info.valid_magic) return info;
  info.version = meta.version;
  info.page_size = meta.page_size;
  info.dim = meta.dim;
  info.size = meta.size;
  info.root = meta.root;
  if (!GtCapacities::Fits(meta.page_size, meta.dim)) {
    info.malformed = "the page cannot hold two entries of the header's dim";
  } else if (meta.sigma_policy >
             static_cast<uint8_t>(SigmaPolicy::kAdditive)) {
    info.malformed = "sigma_policy byte out of range";
  } else if (meta.integral_method >
             static_cast<uint8_t>(IntegralMethod::kSigmoidPoly5)) {
    info.malformed = "integral_method byte out of range";
  } else if (meta.split_strategy >
             static_cast<uint8_t>(SplitStrategy::kMuOnly)) {
    info.malformed = "split_strategy byte out of range";
  }
  info.options.sigma_policy = static_cast<SigmaPolicy>(meta.sigma_policy);
  info.options.integral_method =
      static_cast<IntegralMethod>(meta.integral_method);
  info.options.split_strategy = static_cast<SplitStrategy>(meta.split_strategy);
  return info;
}

uint32_t GaussTree::header_version() { return kGaussTreeVersion; }

std::unique_ptr<GaussTree> GaussTree::Open(PageCache* pool,
                                           PageId meta_page) {
  std::string error;
  std::unique_ptr<GaussTree> tree = TryOpen(pool, meta_page, &error);
  GAUSS_CHECK_MSG(tree != nullptr, error.c_str());
  return tree;
}

std::unique_ptr<GaussTree> GaussTree::TryOpen(PageCache* pool,
                                              PageId meta_page,
                                              std::string* error) {
  GAUSS_CHECK(pool != nullptr && error != nullptr);
  error->clear();
  // The header, like the node pages below, is read on the device, so
  // opening leaves no frame in the pool.
  std::vector<uint8_t> header(pool->page_size());
  pool->device()->Read(meta_page, header.data());
  const HeaderInfo info = InspectHeader(header.data(), header.size());
  if (!info.valid_magic) {
    *error = "page does not hold a Gauss-tree header";
  } else if (info.version != kGaussTreeVersion) {
    *error = "unsupported Gauss-tree version " + std::to_string(info.version);
  } else if (info.page_size != pool->page_size()) {
    *error = "page size mismatch: the device is opened with a different "
             "page size than the tree was serialized with";
  } else if (info.malformed != nullptr) {
    *error = std::string("malformed Gauss-tree header: ") + info.malformed;
  }
  if (!error->empty()) return nullptr;

  auto tree = std::unique_ptr<GaussTree>(
      new GaussTree(pool, info.dim, info.options, meta_page, info.root,
                    static_cast<size_t>(info.size)));
  // Walks (and checksums) every root-reachable node page on the device,
  // remembering the set so Definalize() can reload them.
  if (!tree->store_.OpenFinalized(info.root, tree->size_, error)) {
    return nullptr;
  }
  tree->store_.PinRoot(info.root);
  return tree;
}

double FootprintCost(const std::vector<DimBounds>& bounds,
                     const GaussTreeOptions& options) {
  if (options.split_strategy == SplitStrategy::kVolume) {
    return VolumeCost(bounds);
  }
  return HullIntegralMeasure(bounds.data(), bounds.size(),
                             options.integral_method);
}

size_t ChooseSubtree(const std::vector<GtChildEntry>& entries, const Pfv& pfv,
                     const GaussTreeOptions& options) {
  GAUSS_CHECK(!entries.empty());
  size_t best_slot = 0;
  double best_primary = std::numeric_limits<double>::infinity();
  double best_secondary = std::numeric_limits<double>::infinity();
  bool found_containing = false;
  for (size_t s = 0; s < entries.size(); ++s) {
    const GtChildEntry& e = entries[s];
    const bool empty = e.count == 0;
    const bool contains = !empty && e.Contains(pfv);
    if (contains && !found_containing) {
      // First containing entry resets the competition.
      found_containing = true;
      best_primary = std::numeric_limits<double>::infinity();
      best_secondary = std::numeric_limits<double>::infinity();
    }
    if (found_containing && !contains) continue;

    const double cost = empty ? 0.0 : FootprintCost(e.bounds, options);
    double primary;
    if (contains) {
      primary = cost;  // selectivity of the containing entry
    } else {
      GtChildEntry grown = e;
      grown.Include(pfv);
      primary = FootprintCost(grown.bounds, options) - cost;  // growth
    }
    if (primary < best_primary ||
        (primary == best_primary && cost < best_secondary)) {
      best_primary = primary;
      best_secondary = cost;
      best_slot = s;
    }
  }
  return best_slot;
}

double GaussTree::NodeCost(const std::vector<DimBounds>& bounds) const {
  return FootprintCost(bounds, options_);
}

GtChildEntry GaussTree::RootEntry() const {
  GtNode root;
  store_.Load(root_, &root);
  GtChildEntry entry;
  entry.child = root_;
  entry.count = root.SubtreeCount();
  entry.bounds = root.ComputeBounds(dim_);
  return entry;
}

PageId GaussTree::ChooseLeaf(const Pfv& pfv, std::vector<PageId>* path,
                             std::vector<size_t>* slots) {
  path->clear();
  slots->clear();
  PageId current = root_;
  while (true) {
    path->push_back(current);
    GtNode* node = store_.GetMutable(current);
    if (node->leaf()) return current;
    const size_t best_slot = ChooseSubtree(node->children, pfv, options_);
    slots->push_back(best_slot);
    current = node->children[best_slot].child;
  }
}

GtChildEntry GaussTree::SplitNode(GtNode* node) {
  const size_t n = node->EntryCount();
  GAUSS_CHECK(n >= 2);
  const size_t median = n / 2;

  // Key of entry `e` along split axis (`axis` < dim_: mu axis; otherwise
  // sigma axis of dimension axis - dim_). Inner entries use MBR centers.
  auto key_of = [&](size_t e, size_t axis) -> double {
    if (node->leaf()) {
      const Pfv& pfv = node->pfvs[e];
      return axis < dim_ ? pfv.mu[axis] : pfv.sigma[axis - dim_];
    }
    const GtChildEntry& entry = node->children[e];
    if (axis < dim_) {
      return 0.5 * (entry.bounds[axis].mu_lo + entry.bounds[axis].mu_hi);
    }
    const DimBounds& b = entry.bounds[axis - dim_];
    return 0.5 * (b.sigma_lo + b.sigma_hi);
  };

  // Bounds of an index subset.
  auto subset_bounds = [&](const std::vector<size_t>& order, size_t from,
                           size_t to) {
    GtNode tmp;
    tmp.kind = node->kind;
    for (size_t i = from; i < to; ++i) {
      if (node->leaf()) {
        tmp.pfvs.push_back(node->pfvs[order[i]]);
      } else {
        tmp.children.push_back(node->children[order[i]]);
      }
    }
    return tmp.ComputeBounds(dim_);
  };

  const size_t axis_count =
      options_.split_strategy == SplitStrategy::kMuOnly ? dim_ : 2 * dim_;

  double best_cost = std::numeric_limits<double>::infinity();
  std::vector<size_t> best_order;
  std::vector<size_t> order(n);
  for (size_t axis = 0; axis < axis_count; ++axis) {
    std::iota(order.begin(), order.end(), size_t{0});
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return key_of(a, axis) < key_of(b, axis);
    });
    const double cost = NodeCost(subset_bounds(order, 0, median)) +
                        NodeCost(subset_bounds(order, median, n));
    if (cost < best_cost) {
      best_cost = cost;
      best_order = order;
    }
  }
  GAUSS_CHECK(!best_order.empty());

  // Materialize: left half stays in `node`, right half moves to the sibling.
  GtNode* sibling = store_.Create(node->kind);
  if (node->leaf()) {
    std::vector<Pfv> left, right;
    for (size_t i = 0; i < median; ++i) left.push_back(node->pfvs[best_order[i]]);
    for (size_t i = median; i < n; ++i)
      right.push_back(node->pfvs[best_order[i]]);
    node->pfvs = std::move(left);
    sibling->pfvs = std::move(right);
  } else {
    std::vector<GtChildEntry> left, right;
    for (size_t i = 0; i < median; ++i)
      left.push_back(node->children[best_order[i]]);
    for (size_t i = median; i < n; ++i)
      right.push_back(node->children[best_order[i]]);
    node->children = std::move(left);
    sibling->children = std::move(right);
  }
  return MakeEntry(*sibling, dim_);
}

void GaussTree::RefreshParentEntry(GtNode* parent, size_t child_slot) {
  GAUSS_CHECK(child_slot < parent->children.size());
  GtChildEntry& entry = parent->children[child_slot];
  GtNode child;
  store_.Load(entry.child, &child);
  entry = MakeEntry(child, dim_);
}

void GaussTree::HandleOverflow(const std::vector<PageId>& path,
                               const std::vector<size_t>& slots) {
  for (size_t level = path.size(); level-- > 0;) {
    GtNode* node = store_.GetMutable(path[level]);
    const size_t capacity = node->leaf() ? caps_.leaf : caps_.inner;
    if (node->EntryCount() <= capacity) return;

    GtChildEntry sibling_entry = SplitNode(node);
    if (level == 0) {
      // Root split: grow the tree by one level.
      GtNode* new_root = store_.Create(GtNodeKind::kInner);
      new_root->children.push_back(MakeEntry(*node, dim_));
      new_root->children.push_back(std::move(sibling_entry));
      root_ = new_root->id;
      return;
    }
    GtNode* parent = store_.GetMutable(path[level - 1]);
    RefreshParentEntry(parent, slots[level - 1]);
    parent->children.push_back(std::move(sibling_entry));
  }
}

void GaussTree::Insert(const Pfv& pfv) {
  GAUSS_CHECK_MSG(!store_.finalized(),
                  "Insert requires build mode (call Definalize first)");
  GAUSS_CHECK(pfv.dim() == dim_);
  GAUSS_CHECK(pfv.Valid());

  std::vector<PageId> path;
  std::vector<size_t> slots;
  const PageId leaf_id = ChooseLeaf(pfv, &path, &slots);

  GtNode* leaf = store_.GetMutable(leaf_id);
  leaf->pfvs.push_back(pfv);
  ++size_;

  // Extend ancestor MBRs/counts along the insertion path.
  for (size_t level = 0; level + 1 < path.size(); ++level) {
    GtNode* inner = store_.GetMutable(path[level]);
    GtChildEntry& entry = inner->children[slots[level]];
    entry.Include(pfv);
    entry.count += 1;
  }

  HandleOverflow(path, slots);
}

void GaussTree::BulkInsert(const PfvDataset& dataset) {
  GAUSS_CHECK(dataset.dim() == dim_);
  for (const Pfv& pfv : dataset.objects()) Insert(pfv);
}

GaussTreeStats GaussTree::ComputeStats() const {
  GaussTreeStats stats;
  struct Item {
    PageId id;
    size_t depth;
  };
  std::deque<Item> queue{{root_, 1}};
  size_t leaf_entries = 0, inner_entries = 0;
  GtNode node;
  while (!queue.empty()) {
    const Item item = queue.front();
    queue.pop_front();
    store_.Load(item.id, &node);
    ++stats.node_count;
    stats.height = std::max(stats.height, item.depth);
    if (node.leaf()) {
      ++stats.leaf_nodes;
      leaf_entries += node.pfvs.size();
      stats.object_count += node.pfvs.size();
    } else {
      ++stats.inner_nodes;
      inner_entries += node.children.size();
      for (const GtChildEntry& e : node.children) {
        queue.push_back({e.child, item.depth + 1});
      }
    }
  }
  if (stats.leaf_nodes > 0) {
    stats.avg_leaf_fill = static_cast<double>(leaf_entries) /
                          (static_cast<double>(stats.leaf_nodes) *
                           static_cast<double>(caps_.leaf));
  }
  if (stats.inner_nodes > 0) {
    stats.avg_inner_fill = static_cast<double>(inner_entries) /
                           (static_cast<double>(stats.inner_nodes) *
                            static_cast<double>(caps_.inner));
  }
  return stats;
}

void GaussTree::Validate() const {
  struct Item {
    PageId id;
    size_t depth;
    bool is_root;
    // Expected subtree metadata from the parent entry (unset for root).
    const GtChildEntry* parent_entry;
  };

  // Collect parent entries by value to keep pointers stable.
  std::deque<GtNode> parents;
  std::deque<Item> queue{{root_, 1, true, nullptr}};
  size_t leaf_depth = 0;
  size_t total_objects = 0;

  while (!queue.empty()) {
    const Item item = queue.front();
    queue.pop_front();
    GtNode node;
    store_.Load(item.id, &node);

    const size_t count = node.EntryCount();
    const size_t capacity = node.leaf() ? caps_.leaf : caps_.inner;
    const size_t min_fill = node.leaf() ? caps_.leaf_min : caps_.inner_min;
    GAUSS_CHECK(count <= capacity);
    if (!item.is_root && size_ > caps_.leaf) {
      GAUSS_CHECK_MSG(count >= min_fill, "under-filled non-root node");
    }

    if (item.parent_entry != nullptr) {
      // Parent MBR must contain the child's actual bounds, and the counts
      // must agree (they feed the denominator bounds of Section 5.2.2).
      GAUSS_CHECK(item.parent_entry->count == node.SubtreeCount());
      const std::vector<DimBounds> actual = node.ComputeBounds(dim_);
      for (size_t i = 0; i < dim_; ++i) {
        const DimBounds& pb = item.parent_entry->bounds[i];
        GAUSS_CHECK(pb.mu_lo <= actual[i].mu_lo);
        GAUSS_CHECK(pb.mu_hi >= actual[i].mu_hi);
        GAUSS_CHECK(pb.sigma_lo <= actual[i].sigma_lo);
        GAUSS_CHECK(pb.sigma_hi >= actual[i].sigma_hi);
      }
    }

    if (node.leaf()) {
      if (leaf_depth == 0) leaf_depth = item.depth;
      GAUSS_CHECK_MSG(leaf_depth == item.depth, "leaves at different depths");
      total_objects += node.pfvs.size();
      for (const Pfv& pfv : node.pfvs) {
        GAUSS_CHECK(pfv.dim() == dim_);
        GAUSS_CHECK(pfv.Valid());
      }
    } else {
      GAUSS_CHECK(count >= 1);
      parents.push_back(node);
      const GtNode& stable = parents.back();
      for (const GtChildEntry& e : stable.children) {
        queue.push_back({e.child, item.depth + 1, false, &e});
      }
    }
  }
  GAUSS_CHECK(total_objects == size_);
}

}  // namespace gauss
