#ifndef GAUSS_GAUSSTREE_MLIQ_H_
#define GAUSS_GAUSSTREE_MLIQ_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "gausstree/gauss_tree.h"
#include "gausstree/query_common.h"
#include "pfv/pfv.h"

namespace gauss {

// One answer of an identification query.
struct IdentificationResult {
  uint64_t id = 0;
  // Relative log density log p(q|v) (unnormalized identification weight).
  double log_density = 0.0;
  // Bayes-normalized identification probability P(v|q) (midpoint of the
  // certified interval) and half-width of that interval.
  double probability = 0.0;
  double probability_error = 0.0;
};

struct MliqOptions {
  // Relative accuracy of the reported probabilities: the traversal keeps
  // tightening the denominator bounds until the uncertainty of every
  // reported probability is below this fraction (paper Section 5.2.2:
  // "according to user's specification of exactness").
  double probability_accuracy = 1e-6;
  // If false, only the k best objects are determined (paper Section 5.2.1)
  // and `probability` fields are filled from the denominator bounds reached
  // at that point, without further refinement.
  bool refine_probabilities = true;
  // Absolute target for the scaled denominator gap (denominator_hi -
  // denominator_lo), applied after the refine_probabilities phase; < 0
  // disables. A shard coordinator sets this per shard so each shard refines
  // only as far as its share of the *combined* denominator interval
  // warrants, instead of every shard paying for a full local certification.
  double denominator_target_gap = -1.0;
  // Absolute log-density floor certified to be met or beaten by at least k
  // objects somewhere (a shard coordinator derives it from its per-shard
  // sketches: hull lower bounds are per-object guarantees, so accumulating
  // entry counts down the sorted bounds until they reach k certifies the
  // k-th best global density from above the floor). Phase 1 may then stop
  // as soon as no unexpanded subtree can strictly beat the floor — a shard
  // holding none of the global winners stops after a root glance instead of
  // certifying a full local top-k. -inf (default) disables.
  double density_floor_log = -std::numeric_limits<double>::infinity();
};

using MliqStats = TraversalStats;

struct MliqResult {
  std::vector<IdentificationResult> items;  // descending probability
  MliqStats stats;
  // A node page failed validation (GtNodeStore::LoadSoa): the traversal
  // stopped there, and items/stats are not an answer.
  bool corrupt = false;
};

// k-most-likely identification query over the Gauss-tree (paper Definition 3
// + Sections 5.2.1/5.2.2): best-first traversal ordered by the conservative
// joint upper hull, stopping when the k-th candidate's exact density exceeds
// the best unexpanded subtree bound, then refining the Bayes denominator
// until the probabilities are certified to `probability_accuracy`.
//
// Re-entrancy: the traversal keeps all state (priority queue, denominator
// bounds, node scratch) on the caller's stack and only reads the tree, so
// concurrent calls over one finalized `tree` are safe provided its PageCache
// is thread-safe (ShardedBufferPool); results are identical regardless of
// concurrency. This is what GaussServe (service/query_service.h) builds on.
MliqResult QueryMliq(const GaussTree& tree, const Pfv& q, size_t k,
                     const MliqOptions& options = {});

// Resumable form of QueryMliq, the unit a shard coordinator drives: Run()
// executes the standard query, after which the top-k set is final — further
// expansion can only *tighten* the denominator bounds, never change which
// objects are reported (every unexpanded subtree's per-object upper bound is
// at or below the k-th candidate's exact density). RefineDenominator() is
// that resumable hook: a sharded TIQ/MLIQ answer is only correct once the
// combined per-shard denominator intervals certify it, and when the combined
// interval is still too wide the coordinator re-enters refinement on
// individual shards instead of re-running their traversals from scratch.
//
//   MliqTraversal t(tree, q, k);
//   t.Run();                       // == QueryMliq up to here
//   while (coordinator says bounds too loose && !t.exhausted())
//     t.RefineDenominator(t.denominator_gap() / 2);
//   MliqResult local = t.Result();
//
// Not thread-safe: one traversal is driven by one thread at a time (the
// coordinator serializes rounds per query). Distinct traversals over one
// tree remain concurrent-safe as for QueryMliq.
class MliqTraversal {
 public:
  MliqTraversal(const GaussTree& tree, const Pfv& q, size_t k,
                MliqOptions options = {});

  MliqTraversal(const MliqTraversal&) = delete;
  MliqTraversal& operator=(const MliqTraversal&) = delete;

  // Executes phase 1 (find the k most likely objects) and, when
  // options.refine_probabilities is set, phase 2 (tighten the denominator to
  // options.probability_accuracy against the *local* bounds). Call once.
  void Run();

  // Resumes best-first expansion until the scaled denominator gap
  // (denominator_hi - denominator_lo) is at most `max_gap` or the frontier
  // is exhausted. The reported object set is unaffected (see class comment).
  void RefineDenominator(double max_gap);

  // True once no unexpanded subtree remains: the denominator bounds have
  // collapsed to the exact scaled density sum and cannot tighten further.
  bool exhausted() const { return tracker_.Empty(); }

  // True once a node page failed validation: Run() and RefineDenominator()
  // stopped at that page and do nothing further, and the traversal's items
  // and bounds are not an answer.
  bool corrupt() const { return corrupt_; }

  // Reference log scale of this traversal (the root's joint log upper hull);
  // all scaled values are exp(log - log_ref()). Meaningless for an empty
  // tree — callers combining shards must skip shards with tree().size() == 0.
  double log_ref() const { return log_ref_; }

  double denominator_lo() const { return tracker_.DenominatorLo(); }
  double denominator_hi() const { return tracker_.DenominatorHi(); }
  double denominator_gap() const {
    return denominator_hi() - denominator_lo();
  }

  // The current top-k (descending scaled density). Final after Run().
  const std::vector<ScoredObject>& top_items() const { return items_; }

  // Work counters plus the current denominator bounds.
  TraversalStats stats() const;

  // Result snapshot under the current bounds; equals QueryMliq's return
  // value when taken right after Run().
  MliqResult Result() const;

  const GaussTree& tree() const { return tree_; }

 private:
  // Loads and scores one node; false (and corrupt_ set) when its page fails
  // validation, which ends the traversal.
  bool Expand(const internal::ActiveNode& active);
  void OfferCandidate(const ScoredObject& candidate);
  // Scaled density of the current k-th best (0 while fewer than k seen).
  double KthDensity() const;

  const GaussTree& tree_;
  const Pfv q_;  // copied: the traversal may outlive the caller's probe
  const size_t k_;
  const MliqOptions options_;
  const SigmaPolicy policy_;
  double log_ref_ = 0.0;
  // options_.density_floor_log rebased into this traversal's scale (0 when
  // the floor is unset or underflows: floors only ever prune when > 0).
  double density_floor_ = 0.0;

  internal::DenominatorTracker tracker_;
  internal::QueryCounters counters_;
  std::vector<ScoredObject> items_;  // current top-k, descending density
  // Node view + batch-score scratch, reused across Expand calls.
  internal::BatchScratch scratch_;
  bool ran_ = false;
  bool corrupt_ = false;
};

}  // namespace gauss

#endif  // GAUSS_GAUSSTREE_MLIQ_H_
