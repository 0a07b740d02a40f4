#ifndef GAUSS_GAUSSTREE_TIQ_H_
#define GAUSS_GAUSSTREE_TIQ_H_

#include <cstdint>
#include <vector>

#include "gausstree/gauss_tree.h"
#include "gausstree/mliq.h"
#include "gausstree/query_common.h"
#include "pfv/pfv.h"

namespace gauss {

struct TiqOptions {
  // When true (default), the traversal keeps expanding until every reported
  // object is *certified* to lie at or above the threshold — the result set
  // equals the sequential scan's exactly.
  //
  // When false, the algorithm uses the paper's lazier stopping rule
  // (Figure 5): it stops as soon as no unexpanded subtree can still contain
  // a qualifying object, and reports every surviving candidate. Candidates
  // whose certified probability interval still straddles the threshold are
  // included (no false dismissals; occasional false positives), which is
  // what buys the paper's large TIQ page-access savings.
  bool exact_membership = true;
  // If set, additionally tightens the denominator until the reported
  // probability *values* are certified to `probability_accuracy` — the
  // paper's "if the user additionally specifies to report the actual
  // probabilities of the answer elements at a specified accuracy, the
  // algorithm may have to access more pages" (Section 5.2.3).
  bool refine_probabilities = false;
  double probability_accuracy = 1e-6;
  // Absolute target for the scaled denominator gap after the
  // refine_probabilities phase; < 0 disables. See
  // MliqOptions::denominator_target_gap.
  double denominator_target_gap = -1.0;
  // External lower bound on the *combined* denominator, expressed in this
  // traversal's reference scale (a shard coordinator rebases its
  // sketch-certified global bound by the shard's reference factor). The
  // candidate and frontier pruning tests divide by the larger of this and
  // the local bound: a shard's own partial denominator under-estimates the
  // combined one by its mass share, so without the floor a light shard
  // keeps (and digs for) ~1/share times too many candidates. Any value
  // <= the true combined denominator is conservative; 0 (default) disables.
  double denominator_floor = 0.0;
};

using TiqStats = TraversalStats;

struct TiqResult {
  std::vector<IdentificationResult> items;  // descending probability
  TiqStats stats;
  // A node page failed validation (GtNodeStore::LoadSoa): the traversal
  // stopped there, and items/stats are not an answer.
  bool corrupt = false;
};

// Threshold identification query (paper Definition 2 + Section 5.2.3):
// returns every object v with P(v|q) >= threshold. Best-first traversal with
// incremental denominator bounds; candidates are discarded as soon as their
// probability upper bound drops below the threshold, and traversal stops as
// soon as (a) no unexpanded subtree can contain a qualifying object and (b)
// every remaining candidate's membership is decided.
//
// Re-entrancy: like QueryMliq, all traversal state is per-call; concurrent
// calls over one finalized tree with a thread-safe PageCache are safe and
// return identical results.
TiqResult QueryTiq(const GaussTree& tree, const Pfv& q, double threshold,
                   const TiqOptions& options = {});

// Resumable form of QueryTiq, the unit a shard coordinator drives. Run()
// executes the standard query; afterwards candidates() holds every object
// whose probability upper bound under the traversal's *local* denominator
// still clears the threshold. Because a shard's local denominator bounds
// under-estimate any combined (multi-shard) denominator, that set is a
// superset of the objects that can qualify globally — a coordinator
// re-filters it under combined bounds and never misses an answer. When the
// combined interval leaves a candidate's membership undecided (its
// probability interval straddles the threshold), the coordinator calls
// RefineDenominator() on the shards instead of re-running traversals: newly
// expanded objects only tighten the denominator — they were already
// certified non-qualifying when the frontier fell below the threshold.
//
// Not thread-safe: one traversal is driven by one thread at a time.
class TiqTraversal {
 public:
  TiqTraversal(const GaussTree& tree, const Pfv& q, double threshold,
               TiqOptions options = {});

  TiqTraversal(const TiqTraversal&) = delete;
  TiqTraversal& operator=(const TiqTraversal&) = delete;

  // Executes the query loop (paper Figure 5; exact-membership decision and
  // local probability refinement per `options`). Call once.
  void Run();

  // Resumes best-first expansion until the scaled denominator gap is at most
  // `max_gap` or the frontier is exhausted. Candidates that become certified
  // non-qualifying under the tightened local bounds are swept, exactly as
  // during Run(); candidates can never be added (see class comment).
  void RefineDenominator(double max_gap);

  bool exhausted() const { return tracker_.Empty(); }

  // True once a node page failed validation: Run() and RefineDenominator()
  // stopped at that page and do nothing further, and the traversal's items
  // and bounds are not an answer.
  bool corrupt() const { return corrupt_; }

  // Reference log scale; see MliqTraversal::log_ref().
  double log_ref() const { return log_ref_; }

  double denominator_lo() const { return tracker_.DenominatorLo(); }
  double denominator_hi() const { return tracker_.DenominatorHi(); }
  double denominator_gap() const {
    return denominator_hi() - denominator_lo();
  }

  // Surviving candidates in discovery order (unsorted, pre-final-filter).
  const std::vector<ScoredObject>& candidates() const { return candidates_; }

  // Work counters plus the current denominator bounds.
  TraversalStats stats() const;

  // Result snapshot under the current bounds; equals QueryTiq's return value
  // when taken right after Run().
  TiqResult Result() const;

  const GaussTree& tree() const { return tree_; }

 private:
  // Loads and scores one node; false (and corrupt_ set) when its page fails
  // validation, which ends the traversal.
  bool Expand(const internal::ActiveNode& active);
  // Discards candidates that can no longer qualify (paper Figure 5's "delete
  // unnecessary candidates"). Their densities stay in the exact sum.
  void Sweep();
  bool AllDecided() const;
  // Probability bounds of a scaled density under the current local
  // denominator bounds. den_lo can be 0 early on: upper bound is then 1.
  double ProbHi(double scaled) const;
  double ProbLo(double scaled) const;

  const GaussTree& tree_;
  const Pfv q_;  // copied: the traversal may outlive the caller's probe
  const double threshold_;
  const TiqOptions options_;
  const SigmaPolicy policy_;
  double log_ref_ = 0.0;

  internal::DenominatorTracker tracker_;
  internal::QueryCounters counters_;
  std::vector<ScoredObject> candidates_;
  // Node view + batch-score scratch, reused across Expand calls.
  internal::BatchScratch scratch_;
  bool ran_ = false;
  bool corrupt_ = false;
};

}  // namespace gauss

#endif  // GAUSS_GAUSSTREE_TIQ_H_
