#ifndef GAUSS_GAUSSTREE_QUERY_COMMON_H_
#define GAUSS_GAUSSTREE_QUERY_COMMON_H_

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/log_sum_exp.h"
#include "gausstree/gauss_tree.h"
#include "gausstree/node.h"
#include "math/hull.h"
#include "math/kernels.h"
#include "pfv/pfv.h"

namespace gauss {

// Traversal cost and denominator-bound report of one identification query,
// shared by MLIQ and TIQ (mliq.h/tiq.h typedef their historical names to
// this struct). For a sharded query (service/shard_coordinator.h) the work
// counters are sums over all shards and the denominator bounds are the
// combined bounds in the coordinator's global scale.
struct TraversalStats {
  uint64_t nodes_visited = 0;
  uint64_t leaf_nodes_visited = 0;
  uint64_t objects_evaluated = 0;
  double denominator_lo = 0.0;  // scaled
  double denominator_hi = 0.0;  // scaled
};

// One scored database object produced by an identification traversal.
// `scaled_density` is exp(log_density - log_ref) for the traversal's own
// reference scale; `log_density` is the absolute log p(q|v), comparable
// across traversals over *different* trees — which is what lets a shard
// coordinator merge per-shard answers and re-normalize under a common scale.
struct ScoredObject {
  uint64_t id = 0;
  double scaled_density = 0.0;
  double log_density = 0.0;
};

}  // namespace gauss

namespace gauss::internal {

// Cost/coverage counters shared by both query types.
struct QueryCounters {
  uint64_t nodes_visited = 0;        // nodes popped and expanded
  uint64_t leaf_nodes_visited = 0;
  uint64_t objects_evaluated = 0;    // exact density computations
};

// One unexpanded subtree in the active-page priority queue. All densities are
// *scaled*: exp(log_density - log_ref), where log_ref is the root's joint
// upper hull at the query — a global maximum over everything in the tree —
// so scaled values lie in [0, 1] and linear-space sums of n terms are safe.
struct ActiveNode {
  PageId page = kInvalidPageId;
  uint32_t count = 0;        // objects below this subtree
  double upper = 0.0;        // scaled per-object upper bound (N_hat)
  double lower = 0.0;        // scaled per-object lower bound (N_check)

  // Max-heap on the upper bound (paper: queue ordered by approximation
  // function value).
  bool operator<(const ActiveNode& other) const { return upper < other.upper; }
};

// Shared traversal state: the active-node priority queue plus incremental
// bounds on the part of the Bayes denominator contributed by *unexpanded*
// subtrees (paper Section 5.2.2). exact_sum accumulates the scaled densities
// of every object seen in visited leaves.
//
// The queue is an explicit binary heap over push_heap/pop_heap, the exact
// algorithm std::priority_queue is specified in terms of: pop order is
// bit-identical to a priority_queue's, and Top() reads the best entry in
// place for the traversals' stopping tests.
class DenominatorTracker {
 public:
  void Push(const ActiveNode& node) {
    heap_.push_back(node);
    std::push_heap(heap_.begin(), heap_.end());
    rest_min_.Add(static_cast<double>(node.count) * node.lower);
    rest_max_.Add(static_cast<double>(node.count) * node.upper);
  }

  ActiveNode Pop() {
    std::pop_heap(heap_.begin(), heap_.end());
    ActiveNode top = heap_.back();
    heap_.pop_back();
    rest_min_.Subtract(static_cast<double>(top.count) * top.lower);
    rest_max_.Subtract(static_cast<double>(top.count) * top.upper);
    return top;
  }

  bool Empty() const { return heap_.empty(); }
  const ActiveNode& Top() const { return heap_.front(); }

  void AddExact(double scaled_density) { exact_.Add(scaled_density); }

  double exact_sum() const { return exact_.Value(); }
  // Compensated sums can drift a hair below zero after many +/- updates.
  double rest_min() const { return std::max(0.0, rest_min_.Value()); }
  double rest_max() const { return std::max(0.0, rest_max_.Value()); }

  // Bounds on the full scaled Bayes denominator.
  double DenominatorLo() const { return exact_sum() + rest_min(); }
  double DenominatorHi() const { return exact_sum() + rest_max(); }

 private:
  std::vector<ActiveNode> heap_;  // std::push_heap/pop_heap order
  KahanSum exact_;
  KahanSum rest_min_;
  KahanSum rest_max_;
};

// Reference log scale for a query: the root's joint log upper hull, the
// largest log density any stored object can attain against q. A finalized
// tree's root MBR is cached at pin time; only build mode copies the root.
inline double ComputeLogRef(const GaussTree& tree, const Pfv& q) {
  const std::vector<DimBounds>* bounds =
      tree.store().PinnedBounds(tree.root());
  std::vector<DimBounds> loaded;
  if (bounds == nullptr) {
    GtNode root;
    tree.store().Load(tree.root(), &root);
    if (root.EntryCount() > 0) loaded = root.ComputeBounds(tree.dim());
    bounds = &loaded;
  }
  if (bounds->empty()) return 0.0;
  return JointLogUpperHull(bounds->data(), q.mu.data(), q.sigma.data(),
                           tree.dim(), tree.options().sigma_policy);
}

// The node view plus the score buffers one batch expansion fills — each
// traversal owns one so loading and scoring never reallocate across
// expansions.
struct BatchScratch {
  GtNodeSoa node;
  std::vector<double> log_upper;     // leaf: joint log densities
  std::vector<double> log_lower;     // inner only
  std::vector<double> scaled_upper;  // exp(log - log_ref)
  std::vector<double> scaled_lower;  // inner only
};

// Scores scratch->node against the query with the batch kernels
// (math/kernels.h): a leaf fills log_upper with the per-object joint log
// densities (Lemma 1) and scaled_upper with their rebased linear-space
// values; an inner node fills all four buffers with the per-child hull
// bounds (Lemmas 2/3). The scaled lower bound is clamped to the upper per
// entry — the same rounding guard the scalar path always applied. Every
// arithmetic step dispatches through the kernel backends, whose contract is
// bit-identity with the scalar reference, so traversal decisions (and thus
// answers and page counts) do not depend on the dispatched backend.
inline void ScoreNodeBatch(const Pfv& q, SigmaPolicy policy, double log_ref,
                           BatchScratch* scratch) {
  const GtNodeSoa& soa = scratch->node;
  const size_t n = soa.n;
  scratch->log_upper.resize(n);
  scratch->scaled_upper.resize(n);
  if (soa.leaf()) {
    kernels::JointBatchArgs args;
    args.mu = soa.mu();
    args.sigma = soa.sigma();
    args.stride = soa.stride;
    args.n = n;
    args.dim = soa.dim;
    args.mu_q = q.mu.data();
    args.sigma_q = q.sigma.data();
    args.policy = policy;
    kernels::JointLogDensityBatch(args, scratch->log_upper.data());
    kernels::ExpShiftBatch(scratch->log_upper.data(), log_ref, n,
                           scratch->scaled_upper.data());
    return;
  }
  scratch->log_lower.resize(n);
  scratch->scaled_lower.resize(n);
  kernels::HullBatchArgs args;
  args.mu_lo = soa.mu_lo();
  args.mu_hi = soa.mu_hi();
  args.sigma_lo = soa.sigma_lo();
  args.sigma_hi = soa.sigma_hi();
  args.stride = soa.stride;
  args.n = n;
  args.dim = soa.dim;
  args.mu_q = q.mu.data();
  args.sigma_q = q.sigma.data();
  args.policy = policy;
  kernels::HullIntegralBoundsBatch(args, scratch->log_upper.data(),
                                   scratch->log_lower.data());
  kernels::ExpShiftBatch(scratch->log_upper.data(), log_ref, n,
                         scratch->scaled_upper.data());
  kernels::ExpShiftBatch(scratch->log_lower.data(), log_ref, n,
                         scratch->scaled_lower.data());
  for (size_t j = 0; j < n; ++j) {
    if (scratch->scaled_lower[j] > scratch->scaled_upper[j]) {
      scratch->scaled_lower[j] = scratch->scaled_upper[j];
    }
  }
}

}  // namespace gauss::internal

#endif  // GAUSS_GAUSSTREE_QUERY_COMMON_H_
