#include "gausstree/mliq.h"

#include <algorithm>
#include <cmath>

#include "common/macros.h"
#include "gausstree/query_common.h"
#include "pfv/pfv.h"

namespace gauss {

using internal::ActiveNode;

MliqTraversal::MliqTraversal(const GaussTree& tree, const Pfv& q, size_t k,
                             MliqOptions options)
    : tree_(tree),
      q_(q),
      k_(k),
      options_(options),
      policy_(tree.options().sigma_policy) {
  GAUSS_CHECK(q_.dim() == tree_.dim());
  GAUSS_CHECK(q_.Valid());
  GAUSS_CHECK(k_ > 0);
  if (tree_.size() == 0) return;  // empty frontier: exhausted from the start

  log_ref_ = internal::ComputeLogRef(tree_, q_);
  // Rebase the coordinator's absolute floor into this traversal's scale.
  // exp(-inf - log_ref) == 0 disables cleanly; an overflow to +inf means
  // this whole shard is certified below the global k-th density and phase 1
  // stops at the root. PortableExp — the same exp the batch kernels apply to
  // the subtree bounds — so a bound that ties the floor in log space still
  // ties it here (the floor's strict-< pruning depends on exact ties).
  density_floor_ = kernels::PortableExp(options_.density_floor_log - log_ref_);
  // Seed with the root as a pseudo active node (bounds trivially [0, 1]
  // scaled; exact values are irrelevant because it is expanded first).
  tracker_.Push(ActiveNode{tree_.root(), static_cast<uint32_t>(tree_.size()),
                           1.0, 0.0});
}

void MliqTraversal::OfferCandidate(const ScoredObject& candidate) {
  if (items_.size() == k_ && candidate.scaled_density <= KthDensity()) return;
  auto pos = std::lower_bound(items_.begin(), items_.end(), candidate,
                              [](const ScoredObject& a, const ScoredObject& b) {
                                return a.scaled_density > b.scaled_density;
                              });
  items_.insert(pos, candidate);
  if (items_.size() > k_) items_.pop_back();
}

double MliqTraversal::KthDensity() const {
  return items_.size() < k_ ? 0.0 : items_.back().scaled_density;
}

bool MliqTraversal::Expand(const ActiveNode& active) {
  if (!tree_.store().LoadSoa(active.page, &scratch_.node)) {
    corrupt_ = true;
    return false;
  }
  ++counters_.nodes_visited;
  // One batch kernel call scores the whole node against the query (leaf:
  // Lemma 1 joint densities; inner: Lemma 2/3 hull bounds), then the scalar
  // loop below only routes the per-entry results.
  internal::ScoreNodeBatch(q_, policy_, log_ref_, &scratch_);
  const GtNodeSoa& soa = scratch_.node;
  if (soa.leaf()) {
    ++counters_.leaf_nodes_visited;
    for (size_t j = 0; j < soa.n; ++j) {
      tracker_.AddExact(scratch_.scaled_upper[j]);
      ++counters_.objects_evaluated;
      OfferCandidate(
          {soa.ids[j], scratch_.scaled_upper[j], scratch_.log_upper[j]});
    }
  } else {
    for (size_t j = 0; j < soa.n; ++j) {
      tracker_.Push(ActiveNode{soa.children[j], soa.counts[j],
                               scratch_.scaled_upper[j],
                               scratch_.scaled_lower[j]});
    }
  }  // Unpin the frame: a traversal parked between refine rounds holds none.
  scratch_.node.page.Release();
  return true;
}

void MliqTraversal::Run() {
  GAUSS_CHECK_MSG(!ran_, "MliqTraversal::Run is one-shot");
  ran_ = true;

  // Phase 1 (Section 5.2.1): find the k most likely objects. Safe to stop
  // once every unexpanded subtree's upper bound is at or below the k-th
  // candidate's exact density. If every density underflows to zero (query
  // infinitely far from all data), any k objects are a valid answer once the
  // remaining upper bounds are zero as well.
  while (!tracker_.Empty()) {
    const double top_upper = tracker_.Top().upper;
    const bool local_done =
        items_.size() == k_ &&
        (top_upper <= KthDensity() &&
         (KthDensity() > 0.0 || top_upper == 0.0));
    // Sketch floor (density_floor_log): at least k objects somewhere in the
    // fleet are certified at or above the floor, so a subtree strictly
    // below it cannot hold a global winner — even before k local
    // candidates exist. Strict <: an object tying the floor exactly must
    // still be surfaced for the coordinator's merge.
    const bool floor_done = density_floor_ > 0.0 && top_upper < density_floor_;
    if (local_done || floor_done) break;
    if (!Expand(tracker_.Pop())) return;
  }

  // Phase 2 (Section 5.2.2): tighten the denominator until every reported
  // probability is certified to the requested accuracy.
  if (options_.refine_probabilities) {
    const double eps = options_.probability_accuracy;
    while (!tracker_.Empty()) {
      const double lo = tracker_.DenominatorLo();
      const double hi = tracker_.DenominatorHi();
      if (lo > 0.0 && (hi - lo) <= eps * lo) break;
      if (!Expand(tracker_.Pop())) return;
    }
  }

  // Absolute gap target (a shard coordinator's mass-proportional budget):
  // tighten until the scaled gap fits, independent of the relative test.
  if (options_.denominator_target_gap >= 0.0) {
    RefineDenominator(options_.denominator_target_gap);
  }
}

void MliqTraversal::RefineDenominator(double max_gap) {
  GAUSS_CHECK_MSG(ran_, "RefineDenominator before Run");
  while (!corrupt_ && !tracker_.Empty() && denominator_gap() > max_gap) {
    if (!Expand(tracker_.Pop())) return;
  }
}

TraversalStats MliqTraversal::stats() const {
  TraversalStats stats;
  stats.nodes_visited = counters_.nodes_visited;
  stats.leaf_nodes_visited = counters_.leaf_nodes_visited;
  stats.objects_evaluated = counters_.objects_evaluated;
  stats.denominator_lo = tracker_.DenominatorLo();
  stats.denominator_hi = tracker_.DenominatorHi();
  return stats;
}

MliqResult MliqTraversal::Result() const {
  MliqResult result;
  result.stats = stats();
  result.corrupt = corrupt_;
  const double den_lo = result.stats.denominator_lo;
  const double den_hi = result.stats.denominator_hi;
  for (const ScoredObject& c : items_) {
    IdentificationResult item;
    item.id = c.id;
    item.log_density = c.log_density;
    if (den_lo > 0.0) {
      const double p_hi = std::min(1.0, c.scaled_density / den_lo);
      const double p_lo = c.scaled_density / den_hi;
      item.probability = 0.5 * (p_hi + p_lo);
      item.probability_error = 0.5 * (p_hi - p_lo);
    }
    result.items.push_back(item);
  }
  return result;
}

MliqResult QueryMliq(const GaussTree& tree, const Pfv& q, size_t k,
                     const MliqOptions& options) {
  MliqTraversal traversal(tree, q, k, options);
  traversal.Run();
  return traversal.Result();
}

}  // namespace gauss
