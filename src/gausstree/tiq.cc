#include "gausstree/tiq.h"

#include <algorithm>
#include <cmath>

#include "common/macros.h"
#include "gausstree/query_common.h"

namespace gauss {

using internal::ActiveNode;

TiqTraversal::TiqTraversal(const GaussTree& tree, const Pfv& q,
                           double threshold, TiqOptions options)
    : tree_(tree),
      q_(q),
      threshold_(threshold),
      options_(options),
      policy_(tree.options().sigma_policy) {
  GAUSS_CHECK(q_.dim() == tree_.dim());
  GAUSS_CHECK(q_.Valid());
  GAUSS_CHECK(threshold_ > 0.0 && threshold_ <= 1.0);
  if (tree_.size() == 0) return;  // empty frontier: exhausted from the start

  log_ref_ = internal::ComputeLogRef(tree_, q_);
  tracker_.Push(ActiveNode{tree_.root(), static_cast<uint32_t>(tree_.size()),
                           1.0, 0.0});
}

double TiqTraversal::ProbHi(double scaled) const {
  // The local partial denominator and the coordinator-provided combined
  // floor are both true lower bounds of the denominator the final
  // probability divides by; prune with whichever is tighter.
  const double den =
      std::max(tracker_.DenominatorLo(), options_.denominator_floor);
  return den > 0.0 ? std::min(1.0, scaled / den) : 1.0;
}

double TiqTraversal::ProbLo(double scaled) const {
  const double den = tracker_.DenominatorHi();
  return den > 0.0 ? scaled / den : 0.0;
}

bool TiqTraversal::Expand(const ActiveNode& active) {
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
      candidates_.push_back(
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

void TiqTraversal::Sweep() {
  std::erase_if(candidates_, [&](const ScoredObject& c) {
    return ProbHi(c.scaled_density) < threshold_;
  });
}

bool TiqTraversal::AllDecided() const {
  for (const ScoredObject& c : candidates_) {
    const double hi = ProbHi(c.scaled_density);
    const double lo = ProbLo(c.scaled_density);
    if (lo < threshold_ && hi >= threshold_) return false;
  }
  return true;
}

void TiqTraversal::Run() {
  GAUSS_CHECK_MSG(!ran_, "TiqTraversal::Run is one-shot");
  ran_ = true;

  while (!tracker_.Empty()) {
    // A subtree can still contribute a qualifying object only if its
    // per-object upper bound against the *smallest possible* denominator
    // clears the threshold.
    const bool frontier_can_qualify =
        ProbHi(tracker_.Top().upper) >= threshold_;
    if (!frontier_can_qualify) {
      Sweep();
      // Paper Figure 5 stopping: once the frontier cannot qualify, stop.
      // Exact mode keeps expanding until every surviving candidate is
      // decided (no interval straddles the threshold).
      if (!options_.exact_membership || AllDecided()) break;
    }
    if (!Expand(tracker_.Pop())) return;
    Sweep();
  }
  Sweep();

  // Optional extra refinement so the *values* of the reported probabilities
  // (not just set membership) meet the requested accuracy.
  if (options_.refine_probabilities) {
    const double eps = options_.probability_accuracy;
    while (!tracker_.Empty()) {
      const double lo = tracker_.DenominatorLo();
      const double hi = tracker_.DenominatorHi();
      if (lo > 0.0 && (hi - lo) <= eps * lo) break;
      if (!Expand(tracker_.Pop())) return;
      Sweep();
    }
  }

  // Absolute gap target (a shard coordinator's mass-proportional budget):
  // tighten until the scaled gap fits, independent of the relative test.
  if (options_.denominator_target_gap >= 0.0) {
    RefineDenominator(options_.denominator_target_gap);
  }
}

void TiqTraversal::RefineDenominator(double max_gap) {
  GAUSS_CHECK_MSG(ran_, "RefineDenominator before Run");
  while (!corrupt_ && !tracker_.Empty() && denominator_gap() > max_gap) {
    if (!Expand(tracker_.Pop())) return;
    Sweep();
  }
}

TraversalStats TiqTraversal::stats() const {
  TraversalStats stats;
  stats.nodes_visited = counters_.nodes_visited;
  stats.leaf_nodes_visited = counters_.leaf_nodes_visited;
  stats.objects_evaluated = counters_.objects_evaluated;
  stats.denominator_lo = tracker_.DenominatorLo();
  stats.denominator_hi = tracker_.DenominatorHi();
  return stats;
}

TiqResult TiqTraversal::Result() const {
  TiqResult result;
  result.stats = stats();
  result.corrupt = corrupt_;
  const double den_lo = result.stats.denominator_lo;

  // Degenerate case: every density underflowed to zero (the query is
  // astronomically far from all data). P(v|q) is then 0/0; by the model's
  // property 3 the identification probability degenerates to 1/n, which
  // cannot reach any meaningful threshold for large n — report no answers.
  if (den_lo <= 0.0) return result;

  // Final filter on the certified lower bound; report interval midpoints.
  std::vector<ScoredObject> sorted = candidates_;
  std::sort(sorted.begin(), sorted.end(),
            [](const ScoredObject& a, const ScoredObject& b) {
              return a.scaled_density > b.scaled_density;
            });
  for (const ScoredObject& c : sorted) {
    const double hi = ProbHi(c.scaled_density);
    const double lo = ProbLo(c.scaled_density);
    const double mid = 0.5 * (hi + lo);
    // Exact mode: every surviving candidate is certified (lo >= threshold up
    // to the final bounds); filter at the midpoint for robustness. Lazy mode
    // (paper Figure 5): report every candidate whose upper bound qualifies.
    if (options_.exact_membership && mid < threshold_) continue;
    IdentificationResult item;
    item.id = c.id;
    item.log_density = c.log_density;
    item.probability = mid;
    item.probability_error = 0.5 * (hi - lo);
    result.items.push_back(item);
  }
  return result;
}

TiqResult QueryTiq(const GaussTree& tree, const Pfv& q, double threshold,
                   const TiqOptions& options) {
  TiqTraversal traversal(tree, q, threshold, options);
  traversal.Run();
  return traversal.Result();
}

}  // namespace gauss
