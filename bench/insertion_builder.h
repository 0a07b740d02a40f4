#ifndef GAUSS_BENCH_INSERTION_BUILDER_H_
#define GAUSS_BENCH_INSERTION_BUILDER_H_

// The paper's one-by-one insertion (Section 5.3), kept beside the benches
// that measure it: Figures 6 and 7, ablations A1-A3 and the bulk-load
// ablation build their trees with it, as the paper does. The library builds
// every tree by bulk load (GaussTree::BulkLoad); this builder edits GtNodes
// in memory, then writes every node to its page through the node page
// writers (GtNode::Serialize, over WriteLeafPage and WriteInnerPage) and
// finalizes the tree. Pages are allocated in the order the nodes are
// created — the root leaf first, then one per split — so a tree's device
// image does not depend on when its pages are written.
//
//   GaussTree tree(&pool, dim);
//   InsertionBuild(&tree, dataset);   // then query it like any tree
//
// Two variants exist for the bulk-load ablation (bench/ablation_bulkload.cc),
// which asks why insertion reads several times the pages of a bulk load:
//  * kBestCut splits at the cut position along the axis that minimizes the
//    summed cost of the two halves, anywhere from 40% to 60% of the entries
//    (the R*-tree's m = 40%), instead of at the best axis's median. Its
//    nodes may fall below the half-full fill GaussTree::Validate() checks.
//  * forced_reinsert adds the R*-tree's forced reinsertion (Beckmann et
//    al., "The R*-tree", SIGMOD 1990) at the leaf level: the first time a
//    non-root leaf overflows during one insertion, the 30% of its objects
//    farthest from its MBR center leave it and are inserted again, closest
//    first; a leaf that overflows again splits.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <numeric>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "gausstree/gauss_tree.h"
#include "gausstree/node.h"
#include "pfv/pfv.h"

namespace gauss {

enum class InsertionSplit {
  kMedian,   // the paper's: the best axis's median
  kBestCut,  // the objective's best cut position (see above)
};

struct InsertionVariant {
  InsertionSplit split = InsertionSplit::kMedian;
  bool forced_reinsert = false;
};

class InsertionBuilder {
 public:
  // `tree` must be fresh: never loaded, not finalized. Its root page
  // becomes the first leaf.
  explicit InsertionBuilder(GaussTree* tree, InsertionVariant variant = {})
      : tree_(tree), variant_(variant), root_(tree->root_) {
    GAUSS_CHECK_MSG(tree->size() == 0 && !tree->store().finalized(),
                    "InsertionBuilder needs a fresh tree");
    nodes_.emplace(root_, NewNode(root_, GtNodeKind::kLeaf));
  }

  InsertionBuilder(const InsertionBuilder&) = delete;
  InsertionBuilder& operator=(const InsertionBuilder&) = delete;

  // Inserts one pfv (paper Section 5.3).
  void Insert(const Pfv& pfv) {
    GAUSS_CHECK(pfv.dim() == tree_->dim());
    GAUSS_CHECK(pfv.Valid());
    reinserted_ = false;
    Place(pfv);
    ++size_;
  }

  // Writes every node to its page, hands the tree its root and size, and
  // finalizes it. The builder is spent.
  void Finish() {
    GtNodeStore& store = tree_->store_;
    std::vector<uint8_t> page(store.pool()->page_size());
    for (const auto& [id, node] : nodes_) {
      GAUSS_CHECK_MSG(node->SerializedSize(tree_->dim()) <= page.size(),
                      "node exceeds page capacity");
      std::fill(page.begin(), page.end(), 0);
      node->Serialize(page.data(), tree_->dim());
      store.WritePage(id, page.data());
    }
    nodes_.clear();
    tree_->root_ = root_;
    tree_->size_ = size_;
    tree_->Finalize();
  }

 private:
  static std::unique_ptr<GtNode> NewNode(PageId id, GtNodeKind kind) {
    auto node = std::make_unique<GtNode>();
    node->id = id;
    node->kind = kind;
    return node;
  }

  // A fresh node on a newly allocated page of the tree.
  GtNode* Create(GtNodeKind kind) {
    const PageId id = tree_->store_.AllocatePages(1)[0];
    return nodes_.emplace(id, NewNode(id, kind)).first->second.get();
  }

  GtNode* Node(PageId id) { return nodes_.at(id).get(); }

  double Cost(const std::vector<DimBounds>& bounds) const {
    return FootprintCost(bounds, tree_->options());
  }

  GtChildEntry MakeEntry(const GtNode& node) const {
    GtChildEntry entry;
    entry.child = node.id;
    entry.count = node.SubtreeCount();
    entry.bounds = node.ComputeBounds(tree_->dim());
    return entry;
  }

  // Puts `pfv` into the leaf the insertion rule picks and fixes the path.
  void Place(const Pfv& pfv) {
    std::vector<PageId> path;
    std::vector<size_t> slots;
    GtNode* leaf = Node(ChooseLeaf(pfv, &path, &slots));
    leaf->pfvs.push_back(pfv);
    // Extend ancestor MBRs/counts along the insertion path.
    for (size_t level = 0; level + 1 < path.size(); ++level) {
      GtChildEntry& entry = Node(path[level])->children[slots[level]];
      entry.Include(pfv);
      entry.count += 1;
    }
    HandleOverflow(path, slots);
  }

  // Descends to the leaf the pfv should go to; fills `path` with the page
  // ids from root to leaf and `slots` with child indices taken at each inner
  // node (paper Section 5.3 insertion rules).
  PageId ChooseLeaf(const Pfv& pfv, std::vector<PageId>* path,
                    std::vector<size_t>* slots) {
    PageId current = root_;
    while (true) {
      path->push_back(current);
      const GtNode* node = Node(current);
      if (node->leaf()) return current;
      const size_t best_slot =
          ChooseSubtree(node->children, pfv, tree_->options());
      slots->push_back(best_slot);
      current = node->children[best_slot].child;
    }
  }

  // Handles overflow propagation along `path` after inserting into its
  // leaf.
  void HandleOverflow(const std::vector<PageId>& path,
                      const std::vector<size_t>& slots) {
    const GtCapacities& caps = tree_->capacities();
    for (size_t level = path.size(); level-- > 0;) {
      GtNode* node = Node(path[level]);
      const size_t capacity = node->leaf() ? caps.leaf : caps.inner;
      if (node->EntryCount() <= capacity) return;
      if (variant_.forced_reinsert && node->leaf() && level > 0 &&
          !reinserted_) {
        reinserted_ = true;
        Reinsert(node, path, slots);
        return;
      }

      GtChildEntry sibling_entry = SplitNode(node);
      if (level == 0) {
        // Root split: grow the tree by one level.
        GtNode* new_root = Create(GtNodeKind::kInner);
        new_root->children.push_back(MakeEntry(*node));
        new_root->children.push_back(std::move(sibling_entry));
        root_ = new_root->id;
        return;
      }
      GtNode* parent = Node(path[level - 1]);
      RefreshParentEntry(parent, slots[level - 1]);
      parent->children.push_back(std::move(sibling_entry));
    }
  }

  // Recomputes the parent-entry MBR/count for `child_slot` of `parent`.
  void RefreshParentEntry(GtNode* parent, size_t child_slot) {
    GtChildEntry& entry = parent->children[child_slot];
    entry = MakeEntry(*Node(entry.child));
  }

  // Forced reinsertion of the overflowing leaf at the end of `path`: its
  // objects farthest from its MBR center (in the 2d (mu, sigma) space) leave
  // it, the path's entries shrink to what stays, and they are placed again,
  // closest first.
  void Reinsert(GtNode* leaf, const std::vector<PageId>& path,
                const std::vector<size_t>& slots) {
    const size_t dim = tree_->dim();
    const std::vector<DimBounds> bounds = leaf->ComputeBounds(dim);
    const auto distance = [&](const Pfv& pfv) {
      double sum = 0.0;
      for (size_t d = 0; d < dim; ++d) {
        const double mu = pfv.mu[d] - 0.5 * (bounds[d].mu_lo + bounds[d].mu_hi);
        const double sigma =
            pfv.sigma[d] - 0.5 * (bounds[d].sigma_lo + bounds[d].sigma_hi);
        sum += mu * mu + sigma * sigma;
      }
      return sum;
    };
    const size_t n = leaf->pfvs.size();
    std::vector<size_t> order(n);
    std::iota(order.begin(), order.end(), size_t{0});
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return distance(leaf->pfvs[a]) < distance(leaf->pfvs[b]);
    });
    const size_t leave = std::max<size_t>(1, n * 3 / 10);
    std::vector<Pfv> stay, moved;
    for (size_t i = 0; i < n - leave; ++i) stay.push_back(leaf->pfvs[order[i]]);
    for (size_t i = n - leave; i < n; ++i) moved.push_back(leaf->pfvs[order[i]]);
    leaf->pfvs = std::move(stay);
    for (size_t level = path.size() - 1; level-- > 0;) {
      RefreshParentEntry(Node(path[level]), slots[level]);
    }
    for (const Pfv& pfv : moved) Place(pfv);
  }

  // Splits the overflowing node, redistributing entries by the best median
  // split (kBestCut: the best cut); returns the entry describing the new
  // sibling.
  GtChildEntry SplitNode(GtNode* node) {
    const size_t dim = tree_->dim();
    const size_t n = node->EntryCount();
    GAUSS_CHECK(n >= 2);

    // Key of entry `e` along split axis (`axis` < dim: mu axis; otherwise
    // sigma axis of dimension axis - dim). Inner entries use MBR centers.
    auto key_of = [&](size_t e, size_t axis) -> double {
      if (node->leaf()) {
        const Pfv& pfv = node->pfvs[e];
        return axis < dim ? pfv.mu[axis] : pfv.sigma[axis - dim];
      }
      const GtChildEntry& entry = node->children[e];
      if (axis < dim) {
        return 0.5 * (entry.bounds[axis].mu_lo + entry.bounds[axis].mu_hi);
      }
      const DimBounds& b = entry.bounds[axis - dim];
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
      return tmp.ComputeBounds(dim);
    };

    const size_t axis_count =
        tree_->options().split_strategy == SplitStrategy::kMuOnly ? dim
                                                                  : 2 * dim;
    // Cut positions tried along each axis: the median, or every position
    // that leaves each half at least 40% of the entries.
    size_t first_cut = n / 2, last_cut = n / 2;
    if (variant_.split == InsertionSplit::kBestCut) {
      first_cut = std::max<size_t>(1, (n * 2 + 4) / 5);
      last_cut = n - first_cut;
    }

    double best_cost = std::numeric_limits<double>::infinity();
    std::vector<size_t> best_order;
    size_t best_cut = n / 2;
    std::vector<size_t> order(n);
    for (size_t axis = 0; axis < axis_count; ++axis) {
      std::iota(order.begin(), order.end(), size_t{0});
      std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return key_of(a, axis) < key_of(b, axis);
      });
      for (size_t cut = first_cut; cut <= last_cut; ++cut) {
        const double cost = Cost(subset_bounds(order, 0, cut)) +
                            Cost(subset_bounds(order, cut, n));
        if (cost < best_cost) {
          best_cost = cost;
          best_order = order;
          best_cut = cut;
        }
      }
    }
    GAUSS_CHECK(!best_order.empty());

    // Materialize: the first part stays in `node`, the rest moves to the
    // sibling.
    GtNode* sibling = Create(node->kind);
    if (node->leaf()) {
      std::vector<Pfv> left, right;
      for (size_t i = 0; i < best_cut; ++i) {
        left.push_back(node->pfvs[best_order[i]]);
      }
      for (size_t i = best_cut; i < n; ++i) {
        right.push_back(node->pfvs[best_order[i]]);
      }
      node->pfvs = std::move(left);
      sibling->pfvs = std::move(right);
    } else {
      std::vector<GtChildEntry> left, right;
      for (size_t i = 0; i < best_cut; ++i) {
        left.push_back(node->children[best_order[i]]);
      }
      for (size_t i = best_cut; i < n; ++i) {
        right.push_back(node->children[best_order[i]]);
      }
      node->children = std::move(left);
      sibling->children = std::move(right);
    }
    return MakeEntry(*sibling);
  }

  GaussTree* tree_;
  InsertionVariant variant_;
  PageId root_;
  size_t size_ = 0;
  // Forced reinsertion already ran during the current Insert().
  bool reinserted_ = false;
  std::unordered_map<PageId, std::unique_ptr<GtNode>> nodes_;
};

// Builds the fresh `tree` by inserting dataset's objects one by one, in
// order, and finalizes it.
inline void InsertionBuild(GaussTree* tree, const PfvDataset& dataset,
                           InsertionVariant variant = {}) {
  GAUSS_CHECK(dataset.dim() == tree->dim());
  InsertionBuilder builder(tree, variant);
  for (const Pfv& pfv : dataset.objects()) builder.Insert(pfv);
  builder.Finish();
}

}  // namespace gauss

#endif  // GAUSS_BENCH_INSERTION_BUILDER_H_
