#include "gausstree/gauss_tree.h"

#include <algorithm>
#include <cstring>
#include <deque>
#include <limits>
#include <memory>
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
  root_ = store_.AllocatePages(1)[0];
  // A fresh tree is one empty root leaf, on its page; a load overwrites it.
  std::vector<uint8_t> page(pool->page_size(), 0);
  GtNode().Serialize(page.data(), dim_);
  store_.WritePage(root_, page.data());
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
  if (store_.finalized()) return;
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
  // remembering the set (GtNodeStore::pages()).
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
