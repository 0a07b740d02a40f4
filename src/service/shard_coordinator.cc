#include "service/shard_coordinator.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <utility>

#include "common/macros.h"
#include "math/hull.h"
#include "math/kernels.h"

namespace gauss {

namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

// Absolute floor on the combined scaled-denominator gap. A relative test
// alone can never certify a query whose combined lower bound is zero (every
// lower hull underflowed — e.g. a probe far from all gallery objects), so a
// gap at or below this floor certifies unconditionally: the reported
// intervals are honest error bars either way.
constexpr double kGapFloor = 1e-12;

// Backstop on coordinator refinement rounds. Under normal operation a query
// certifies in one round (positive lower bound) or a handful of halvings;
// the cap only bites when floating-point pathologies would otherwise spin.
constexpr size_t kMaxRefineRounds = 64;

// A shard-local scored object rebased onto the coordinator's global scale.
struct GlobalCandidate {
  ScoredObject obj;
  double scaled_global = 0.0;
};

QueryResponse ShardErrorResponse(QueryKind kind, const NetError& error) {
  QueryResponse resp;
  resp.kind = kind;
  // A shard reporting that the query's own deadline elapsed before its
  // request could even be written is the query running out of budget, not a
  // shard malfunction: report it exactly like the front door would.
  if (error.code == NetErrorCode::kDeadlineExceeded) {
    resp.status = QueryResponse::Status::kDeadlineExceeded;
    return resp;
  }
  resp.status = QueryResponse::Status::kShardError;
  resp.error = error;
  return resp;
}

// Water-filling allocator: the level tau such that capping every shard's
// (global-scale) gap at tau leaves a combined gap of exactly `budget`:
// sum_s min(g_s, tau) = budget. Shards already below the level need no work
// at all; the rest refine down to it — cost proportional to contribution.
// Sorts `gaps` ascending in place (pair order: gap then shard index, so the
// allocation is deterministic across transports and platforms). Returns
// +infinity when the summed gap is already within budget (nobody refines).
double WaterFillLevel(std::vector<std::pair<double, size_t>>* gaps,
                      double budget) {
  std::sort(gaps->begin(), gaps->end());
  const size_t m = gaps->size();
  double below = 0.0;  // sum of gaps under the candidate level
  for (size_t i = 0; i < m; ++i) {
    // If tau lands at or under gaps[i], the i smaller shards keep their full
    // gaps and the m-i others are capped at tau.
    const double candidate = (budget - below) / static_cast<double>(m - i);
    if (candidate <= (*gaps)[i].first) return candidate;
    below += (*gaps)[i].first;
  }
  return std::numeric_limits<double>::infinity();
}

}  // namespace

// Global reference scale over the shards' partials plus the per-shard
// rebasing factors exp(log_ref_s - log_ref_global). The global reference is
// the maximum, so every factor is <= 1 and rebasing can only shrink scaled
// values. Shards with empty trees carry no objects and no denominator mass;
// they are skipped (factor 0).
namespace {

struct GlobalScale {
  double log_ref = kNegInf;  // kNegInf iff every shard is empty
  std::vector<double> factor;

  template <typename Runs>
  explicit GlobalScale(const Runs& runs) {
    factor.resize(runs.size(), 0.0);
    for (const auto& run : runs) {
      if (run.partial.tree_size > 0) {
        log_ref = std::max(log_ref, run.partial.log_ref);
      }
    }
    for (size_t s = 0; s < runs.size(); ++s) {
      if (runs[s].partial.tree_size > 0) {
        factor[s] = std::exp(runs[s].partial.log_ref - log_ref);
      }
    }
  }

  bool all_empty() const { return log_ref == kNegInf; }
};

// Combined denominator bounds in the global scale: the Bayes denominator is
// a sum over all database objects, so it decomposes exactly into per-shard
// partial sums — and interval bounds on the parts sum to interval bounds on
// the whole.
template <typename Runs>
void CombineDenominator(const Runs& runs, const GlobalScale& scale, double* lo,
                        double* hi) {
  *lo = 0.0;
  *hi = 0.0;
  for (size_t s = 0; s < runs.size(); ++s) {
    *lo += runs[s].partial.denominator_lo * scale.factor[s];
    *hi += runs[s].partial.denominator_hi * scale.factor[s];
  }
}

// Work counters summed over every shard (counters are cumulative, so the
// latest partial always carries each traversal's total); denominator bounds
// are the combined global-scale interval.
template <typename Runs>
TraversalStats SumStats(const Runs& runs, double global_lo, double global_hi) {
  TraversalStats total;
  for (const auto& run : runs) {
    total.nodes_visited += run.partial.nodes_visited;
    total.leaf_nodes_visited += run.partial.leaf_nodes_visited;
    total.objects_evaluated += run.partial.objects_evaluated;
  }
  total.denominator_lo = global_lo;
  total.denominator_hi = global_hi;
  return total;
}

// Whether `query` asks for certified probability values (a denominator
// refinement beyond identification).
bool RefinesProbabilities(const Query& query) {
  return query.kind() == QueryKind::kMliq
             ? query.mliq_options().refine_probabilities
             : query.tiq_options().refine_probabilities;
}

// Folds one traversal's refinement result into its partial answer.
void ApplyRefineUpdate(const RefineUpdate& u, ShardPartial* p) {
  p->denominator_lo = u.denominator_lo;
  p->denominator_hi = u.denominator_hi;
  p->exhausted = u.exhausted;
  p->nodes_visited = u.nodes_visited;
  p->leaf_nodes_visited = u.leaf_nodes_visited;
  p->objects_evaluated = u.objects_evaluated;
}

}  // namespace

ShardCoordinator::ShardCoordinator(std::vector<ShardBackend*> backends,
                                   ShardCoordinatorOptions options)
    : backends_(std::move(backends)),
      pool_(std::max<size_t>(1, options.num_threads), options.queue_capacity,
            [this](const Query& query) { return ExecuteSharded(query); }) {
  GAUSS_CHECK_MSG(!backends_.empty(), "ShardCoordinator needs >= 1 shard");
  for (const ShardBackend* backend : backends_) GAUSS_CHECK(backend != nullptr);
  dim_ = backends_.front()->dim();
  for (const ShardBackend* backend : backends_) {
    GAUSS_CHECK_MSG(backend->dim() == dim_,
                    "all shards must share one dimensionality");
  }
  // Cache one coarse denominator sketch per shard so Start queries can
  // carry water-filled initial gap targets. All-or-nothing: a single
  // failed or malformed fetch disables sketch planning entirely, keeping
  // target computation deterministic (a per-shard mix of "had a sketch"
  // and "didn't" would make the refinement path depend on transient I/O).
  sketches_.reserve(backends_.size());
  have_sketches_ = true;
  // A sketch whose entries are not valid MBRs can come only from a damaged
  // or hostile shard; it is refused like a failed fetch, so every plan
  // stays inside the hull kernel's contract.
  const auto valid = [](const std::vector<DimBounds>& bounds) {
    return std::all_of(bounds.begin(), bounds.end(),
                       [](const DimBounds& b) { return b.Valid(); });
  };
  for (ShardBackend* backend : backends_) {
    ShardBackend::SketchResult result = backend->FetchSketch();
    const ShardSketch& sketch = result.sketch;
    const bool usable =
        result.error.ok() &&
        (sketch.tree_size == 0 ||
         (sketch.root_bounds.size() == dim_ && valid(sketch.root_bounds) &&
          std::all_of(sketch.entries.begin(), sketch.entries.end(),
                      [&](const ShardSketchEntry& e) {
                        return e.bounds.size() == dim_ && valid(e.bounds);
                      })));
    if (!usable) {
      have_sketches_ = false;
      sketches_.clear();
      sketch_hulls_.clear();
      break;
    }
    sketch_hulls_.emplace_back(sketch, dim_);
    result.sketch.entries = {};
    sketches_.push_back(std::move(result.sketch));
  }
  seed_counts_ =
      std::make_unique<std::atomic<uint64_t>[]>(backends_.size());
}

QueryResponse ShardCoordinator::ExecuteSharded(const Query& query) {
  const auto start = std::chrono::steady_clock::now();
  QueryResponse resp = query.kind() == QueryKind::kMliq ? ExecuteMliq(query)
                                                        : ExecuteTiq(query);
  resp.latency_ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
  return resp;
}

ShardCoordinator::StartOutcome ShardCoordinator::StartAll(const Query& query) {
  const size_t shards = backends_.size();
  StartOutcome out;
  out.runs.resize(shards);
  for (ShardRun& run : out.runs) run.id = next_traversal_id_.fetch_add(1);
  // Per-shard query copies (when planned) must outlive the gather below,
  // exactly like `query` itself: backends hold references until their Start
  // futures are ready. The vector is complete before the first Start and
  // never reallocates; an entry is only tightened before its own Start.
  std::vector<Query> shard_queries;
  SketchPlan plan;
  const bool per_shard = PlanShardQueries(query, &shard_queries, &plan);
  std::vector<std::future<ShardBackend::StartResult>> futures(shards);
  std::vector<bool> started(shards, false), gathered(shards, false);
  const auto start = [&](size_t s) {
    started[s] = true;
    futures[s] = backends_[s]->Start(out.runs[s].id,
                                     per_shard ? shard_queries[s] : query);
  };
  const auto gather = [&](size_t s) {
    ShardBackend::StartResult result = futures[s].get();
    gathered[s] = true;
    if (!result.error.ok()) {
      if (out.error.ok()) out.error = result.error;
      return;
    }
    out.runs[s].partial = std::move(result.partial);
  };

  std::future<ShardBackend::RefineResult> seed_refine;
  if (per_shard && plan.seed != kNoSeed) {
    // Seeded Start: the seed first. Shards without a sketch (live deltas)
    // have nothing to rank them by and start alongside it. The seed only
    // identifies: its refinement to its planned gap target runs as a Refine
    // of the same traversal, issued with the other shards' Starts.
    const size_t seed = plan.seed;
    const double seed_target =
        RefinesProbabilities(query) ? plan.targets[seed] : -1.0;
    if (seed_target >= 0.0) shard_queries[seed].DenominatorTargetGap(-1.0);
    start(seed);
    for (size_t s = 0; s < shards; ++s) {
      if (s != seed && sketches_[s].tree_size == 0) start(s);
    }
    gather(seed);
    if (!out.error.ok()) {
      // The others never start; the early starters are gathered so no
      // future (and no reference to a query copy) outlives this call.
      for (size_t s = 0; s < shards; ++s) {
        if (started[s] && !gathered[s]) gather(s);
      }
      return out;
    }
    seed_counts_[seed].fetch_add(1, std::memory_order_relaxed);
    TightenFromSeed(query, plan, out.runs[seed].partial, started,
                    &shard_queries);
    const ShardPartial& p = out.runs[seed].partial;
    if (seed_target >= 0.0 && !p.exhausted &&
        p.denominator_hi - p.denominator_lo > seed_target) {
      seed_refine = backends_[seed]->Refine({{out.runs[seed].id, seed_target}});
    }
  }
  for (size_t s = 0; s < shards; ++s) {
    if (!started[s]) start(s);
  }
  // Gather everything even after a failure: the query must stay alive until
  // every future is ready, and a straggler shard may still hold state worth
  // releasing.
  for (size_t s = 0; s < shards; ++s) {
    if (!gathered[s]) gather(s);
  }
  if (seed_refine.valid()) {
    ShardBackend::RefineResult result = seed_refine.get();
    if (!result.error.ok()) {
      if (out.error.ok()) out.error = result.error;
    } else {
      ApplyRefineUpdate(result.updates.front(),
                        &out.runs[plan.seed].partial);
    }
  }
  return out;
}

void ShardCoordinator::TightenFromSeed(
    const Query& query, const SketchPlan& plan, const ShardPartial& seed,
    const std::vector<bool>& started,
    std::vector<Query>* shard_queries) const {
  const size_t shards = backends_.size();
  if (query.kind() == QueryKind::kMliq) {
    // The seed's k-th item is a real object, and so are the k-1 above it:
    // k objects fleet-wide sit at or above its log-density.
    if (seed.items.size() < query.k()) return;
    const double floor_log = std::max(plan.density_floor_log,
                                      seed.items[query.k() - 1].log_density);
    for (size_t s = 0; s < shards; ++s) {
      if (!started[s]) (*shard_queries)[s].DensityFloorLog(floor_log);
    }
    return;
  }
  // TIQ: the combined denominator is at least every other shard's coarse
  // lower bound plus the seed's real Start lower bound, all in the global
  // scale. The seed's interval lies inside its coarse one, so this is never
  // looser than the sketch floor; the max below only guards rounding.
  if (seed.tree_size == 0) return;
  double combined_lo =
      seed.denominator_lo * std::exp(seed.log_ref - plan.log_ref);
  for (size_t s = 0; s < shards; ++s) {
    if (s != plan.seed) combined_lo += plan.coarse_lo[s];
  }
  for (size_t s = 0; s < shards; ++s) {
    if (started[s]) continue;
    const double floor = plan.factor[s] > 0.0
                             ? combined_lo / plan.factor[s]
                             : std::numeric_limits<double>::infinity();
    (*shard_queries)[s].DenominatorFloor(std::max(plan.den_floors[s], floor));
  }
}

bool ShardCoordinator::PlanShardQueries(const Query& query,
                                        std::vector<Query>* out,
                                        SketchPlan* plan) const {
  const bool refining = RefinesProbabilities(query);
  // A non-refining query (lazy TIQ, exact-membership-only TIQ, bare MLIQ
  // identification) still benefits from the sketch floors; without sketches
  // there is nothing to plan for it.
  if (!refining && !have_sketches_) return false;
  if (have_sketches_) *plan = PlanFromSketches(query);
  if (!refining && !plan->valid) return false;
  out->reserve(backends_.size());
  for (size_t s = 0; s < backends_.size(); ++s) {
    Query q = query;
    if (refining) {
      // Suppress the shard-local relative certification — refining every
      // shard to a relative epsilon against its own bounds costs ~the same
      // I/O per shard no matter how little mass it holds. The coordinator
      // certifies against the combined interval instead, and the absolute
      // gap target seeds each shard with its mass-proportional share.
      q.RefineProbabilities(false).DenominatorTargetGap(
          plan->valid ? plan->targets[s] : -1.0);
    }
    if (plan->valid) {
      if (query.kind() == QueryKind::kMliq) {
        q.DensityFloorLog(plan->density_floor_log);
      } else {
        q.DenominatorFloor(plan->den_floors[s]);
      }
    }
    out->push_back(std::move(q));
  }
  return true;
}

SketchHulls::SketchHulls(const ShardSketch& sketch, size_t dim)
    : n_(sketch.entries.size()),
      dim_(dim),
      policy_(sketch.sigma_policy),
      counts_(n_),
      planes_(4 * dim * n_) {
  for (size_t j = 0; j < n_; ++j) {
    counts_[j] = sketch.entries[j].count;
    for (size_t i = 0; i < dim; ++i) {
      const DimBounds& b = sketch.entries[j].bounds[i];
      planes_[(0 * dim + i) * n_ + j] = b.mu_lo;
      planes_[(1 * dim + i) * n_ + j] = b.mu_hi;
      planes_[(2 * dim + i) * n_ + j] = b.sigma_lo;
      planes_[(3 * dim + i) * n_ + j] = b.sigma_hi;
    }
  }
}

void SketchHulls::Evaluate(const double* mu_q, const double* sigma_q,
                           std::vector<double>* upper,
                           std::vector<double>* lower) const {
  upper->resize(n_);
  lower->resize(n_);
  kernels::HullBatchArgs args;
  args.mu_lo = planes_.data();
  args.mu_hi = planes_.data() + dim_ * n_;
  args.sigma_lo = planes_.data() + 2 * dim_ * n_;
  args.sigma_hi = planes_.data() + 3 * dim_ * n_;
  args.stride = n_;
  args.n = n_;
  args.dim = dim_;
  args.mu_q = mu_q;
  args.sigma_q = sigma_q;
  args.policy = policy_;
  kernels::HullIntegralBoundsBatch(args, upper->data(), lower->data());
}

ShardCoordinator::SketchPlan ShardCoordinator::PlanFromSketches(
    const Query& query) const {
  SketchPlan plan;
  plan.targets.assign(backends_.size(), -1.0);
  plan.den_floors.assign(backends_.size(), 0.0);
  plan.density_floor_log = kNegInf;
  const Pfv& q = query.pfv();

  // Coarse per-shard denominator bounds from the cached sketches: hull
  // integrals of each root entry against the query, in the shard's own
  // reference scale — the same arithmetic the shard's round 1 performs, so
  // the coarse interval always contains the shard's round-1 interval.
  struct Coarse {
    double lo = 0.0, hi = 0.0, log_ref = kNegInf;
  };
  std::vector<Coarse> coarse(sketches_.size());
  // (per-object log-density lower bound, objects certified at it) over every
  // entry of every shard — the raw material of the MLIQ k-th density floor.
  std::vector<std::pair<double, uint64_t>> entry_floors;
  double log_ref_g = kNegInf;
  // Seed candidate: the shard owning the entry with the highest upper hull
  // (strict >, so ties go to the lowest shard index).
  double best_hi_log = kNegInf;
  size_t best_shard = kNoSeed;
  size_t sketched = 0;
  std::vector<double> upper, lower;
  for (size_t s = 0; s < sketches_.size(); ++s) {
    const ShardSketch& sk = sketches_[s];
    if (sk.tree_size == 0) continue;
    ++sketched;
    Coarse& c = coarse[s];
    c.log_ref = JointLogUpperHull(sk.root_bounds.data(), q.mu.data(),
                                  q.sigma.data(), dim_, sk.sigma_policy);
    const SketchHulls& hulls = sketch_hulls_[s];
    hulls.Evaluate(q.mu.data(), q.sigma.data(), &upper, &lower);
    for (size_t j = 0; j < hulls.size(); ++j) {
      const uint32_t count = hulls.count(j);
      const double lo_log = lower[j];
      const double hi_log = upper[j];
      c.lo += count * std::exp(lo_log - c.log_ref);
      c.hi += count * std::exp(hi_log - c.log_ref);
      entry_floors.push_back({lo_log, count});
      if (best_shard == kNoSeed || hi_log > best_hi_log) {
        best_hi_log = hi_log;
        best_shard = s;
      }
    }
    if (c.lo > c.hi) c.lo = c.hi;  // same rounding guard as ScoreNodeBatch
    log_ref_g = std::max(log_ref_g, c.log_ref);
  }
  if (log_ref_g == kNegInf) return plan;  // every shard empty
  plan.valid = true;
  plan.log_ref = log_ref_g;
  if (sketched >= 2) plan.seed = best_shard;

  double coarse_lo_g = 0.0, coarse_hi_g = 0.0;
  std::vector<double>& factor = plan.factor;
  factor.assign(sketches_.size(), 0.0);
  plan.coarse_lo.assign(sketches_.size(), 0.0);
  std::vector<std::pair<double, size_t>> gaps;
  for (size_t s = 0; s < sketches_.size(); ++s) {
    if (sketches_[s].tree_size == 0) continue;
    factor[s] = std::exp(coarse[s].log_ref - log_ref_g);
    plan.coarse_lo[s] = coarse[s].lo * factor[s];
    coarse_lo_g += plan.coarse_lo[s];
    coarse_hi_g += coarse[s].hi * factor[s];
    gaps.push_back({(coarse[s].hi - coarse[s].lo) * factor[s], s});
  }

  if (query.kind() == QueryKind::kMliq) {
    // k-th global density floor: hull lower bounds are per-object
    // guarantees, so walking the entries best-first and accumulating their
    // counts until they reach k certifies that >= k objects sit at or above
    // the last bound taken. A shard whose frontier falls strictly below the
    // floor cannot hold a global winner and may stop phase 1 early.
    std::sort(entry_floors.begin(), entry_floors.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });
    uint64_t covered = 0;
    for (const auto& [lo_log, count] : entry_floors) {
      covered += count;
      if (covered >= query.k()) {
        plan.density_floor_log = lo_log;
        break;
      }
    }
  } else {
    // Combined-denominator floor for TIQ pruning, rebased into each shard's
    // own scale (factor underflowing to 0 means the shard's best possible
    // density is negligible at global scale — an infinite floor prunes its
    // whole candidate set, which is exactly right).
    for (size_t s = 0; s < sketches_.size(); ++s) {
      if (sketches_[s].tree_size == 0) continue;
      plan.den_floors[s] = factor[s] > 0.0
                               ? coarse_lo_g / factor[s]
                               : std::numeric_limits<double>::infinity();
    }
  }

  if (!RefinesProbabilities(query)) return plan;
  const double eps = query.kind() == QueryKind::kMliq
                         ? query.mliq_options().probability_accuracy
                         : query.tiq_options().probability_accuracy;
  // Budget against the coarse UPPER bound: eps * hi >= eps * lo_final, so a
  // sketch can only under-refine — the coordinator's first round cleans up
  // cheaply — never waste I/O over-refining a light shard.
  const double budget = std::max(eps * coarse_hi_g, kGapFloor);
  const double level = WaterFillLevel(&gaps, budget);
  if (!std::isfinite(level)) return plan;  // coarse gap already within budget
  // Every non-empty shard gets its target — a shard whose coarse gap is
  // already below the level reaches it with zero extra work (its actual
  // round-1 gap is at most the coarse one).
  for (const auto& [gap, s] : gaps) plan.targets[s] = level / factor[s];
  return plan;
}

ShardCoordinator::RoundOutcome ShardCoordinator::RefineRound(
    std::vector<ShardRun>& runs, const std::vector<double>& factor,
    double budget) {
  RoundOutcome out;
  std::vector<size_t> shard_of;
  std::vector<std::future<ShardBackend::RefineResult>> futures;
  // Water-fill the budget (an absolute combined-scale gap the round may
  // leave behind) over the shards' rebased gaps. Exhausted shards carry a
  // zero gap (their denominator is exact) and drop out naturally.
  std::vector<std::pair<double, size_t>> gaps;
  for (size_t s = 0; s < runs.size(); ++s) {
    const ShardPartial& p = runs[s].partial;
    const double gap = (p.denominator_hi - p.denominator_lo) * factor[s];
    if (p.exhausted || gap <= 0.0) continue;
    gaps.push_back({gap, s});
  }
  const double level = WaterFillLevel(&gaps, budget);
  for (const auto& [gap, s] : gaps) {
    // Already below the water level: this shard's whole gap fits inside
    // the budget. Skip it outright — no frame, no I/O.
    if (gap <= level) continue;
    shard_of.push_back(s);
    // Targets derive from *transported* doubles (raw IEEE-754 on the
    // wire), so RPC and in-process shards receive bit-identical targets.
    futures.push_back(
        backends_[s]->Refine({{runs[s].id, level / factor[s]}}));
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    ShardBackend::RefineResult result = futures[i].get();
    if (!result.error.ok()) {
      if (out.error.ok()) out.error = result.error;
      continue;
    }
    ApplyRefineUpdate(result.updates.front(), &runs[shard_of[i]].partial);
  }
  out.progressed = !futures.empty();
  return out;
}

void ShardCoordinator::ReleaseAll(const std::vector<ShardRun>& runs) {
  for (size_t s = 0; s < runs.size(); ++s) {
    backends_[s]->Release({runs[s].id});
  }
}

QueryResponse ShardCoordinator::ExecuteMliq(const Query& query) {
  QueryResponse resp;
  resp.kind = QueryKind::kMliq;
  const MliqOptions& options = query.mliq_options();

  StartOutcome started = StartAll(query);
  std::vector<ShardRun>& runs = started.runs;
  if (!started.error.ok()) {
    ReleaseAll(runs);
    return ShardErrorResponse(QueryKind::kMliq, started.error);
  }

  const GlobalScale scale(runs);
  double global_lo = 0.0, global_hi = 0.0;
  if (!scale.all_empty()) {
    CombineDenominator(runs, scale, &global_lo, &global_hi);

    // The merged top-k is already final after round 1 (see header): only the
    // probability certification can require more work. Shards refine until
    // the combined interval meets the requested accuracy — or the absolute
    // gap floor, which is the only exit when the combined lower bound is
    // zero (a relative test can never certify lo == 0).
    if (options.refine_probabilities) {
      const double eps = options.probability_accuracy;
      const auto certified = [&] {
        const double gap = global_hi - global_lo;
        return gap <= kGapFloor || (global_lo > 0.0 && gap <= eps * global_lo);
      };
      size_t rounds = 0;
      while (!certified() && rounds++ < kMaxRefineRounds) {
        // With a positive lower bound, leaving eps * lo of gap certifies in
        // this one round (lo only grows). With lo == 0, halve the gap until
        // mass appears or the floor fires.
        const double gap = global_hi - global_lo;
        const double budget =
            std::max(global_lo > 0.0 ? eps * global_lo : 0.5 * gap, kGapFloor);
        const RoundOutcome round = RefineRound(runs, scale.factor, budget);
        if (!round.error.ok()) {
          ReleaseAll(runs);
          return ShardErrorResponse(QueryKind::kMliq, round.error);
        }
        if (!round.progressed) break;
        CombineDenominator(runs, scale, &global_lo, &global_hi);
      }
    }

    // Merge the per-shard top-k lists: any global winner is a local winner,
    // so the union contains the exact global top-k. Stable sort keeps each
    // shard's internal (already density-descending) order on ties.
    std::vector<GlobalCandidate> merged;
    for (size_t s = 0; s < runs.size(); ++s) {
      for (const ScoredObject& o : runs[s].partial.items) {
        merged.push_back({o, o.scaled_density * scale.factor[s]});
      }
    }
    std::stable_sort(merged.begin(), merged.end(),
                     [](const GlobalCandidate& a, const GlobalCandidate& b) {
                       return a.scaled_global > b.scaled_global;
                     });
    if (merged.size() > query.k()) merged.resize(query.k());

    for (const GlobalCandidate& c : merged) {
      IdentificationResult item;
      item.id = c.obj.id;
      item.log_density = c.obj.log_density;
      if (global_lo > 0.0) {
        const double p_hi = std::min(1.0, c.scaled_global / global_lo);
        const double p_lo = c.scaled_global / global_hi;
        item.probability = 0.5 * (p_hi + p_lo);
        item.probability_error = 0.5 * (p_hi - p_lo);
      }
      resp.items.push_back(item);
    }
  }
  resp.stats = SumStats(runs, global_lo, global_hi);
  ReleaseAll(runs);
  return resp;
}

QueryResponse ShardCoordinator::ExecuteTiq(const Query& query) {
  QueryResponse resp;
  resp.kind = QueryKind::kTiq;
  const TiqOptions& options = query.tiq_options();
  const double threshold = query.threshold();

  StartOutcome started = StartAll(query);
  std::vector<ShardRun>& runs = started.runs;
  if (!started.error.ok()) {
    ReleaseAll(runs);
    return ShardErrorResponse(QueryKind::kTiq, started.error);
  }

  const GlobalScale scale(runs);
  double global_lo = 0.0, global_hi = 0.0;
  if (!scale.all_empty()) {
    // Union of per-shard survivors: a superset of every globally qualifying
    // object (shard-local upper-bound filtering is conservative).
    std::vector<GlobalCandidate> cands;
    for (size_t s = 0; s < runs.size(); ++s) {
      for (const ScoredObject& o : runs[s].partial.items) {
        cands.push_back({o, o.scaled_density * scale.factor[s]});
      }
    }
    CombineDenominator(runs, scale, &global_lo, &global_hi);

    const auto prob_hi = [&](double scaled) {
      return global_lo > 0.0 ? std::min(1.0, scaled / global_lo) : 1.0;
    };
    const auto prob_lo = [&](double scaled) {
      return global_hi > 0.0 ? scaled / global_hi : 0.0;
    };

    // Exact membership needs every candidate's interval off the threshold;
    // probability reporting needs the combined interval at the requested
    // accuracy (or the absolute gap floor — the only exit when the combined
    // lower bound is zero). Either failing triggers another refinement
    // round, with the round's budget set by the tighter of the two demands.
    const auto accuracy_certified = [&] {
      const double gap = global_hi - global_lo;
      return gap <= kGapFloor ||
             (global_lo > 0.0 &&
              gap <= options.probability_accuracy * global_lo);
    };
    const auto membership_undecided = [&] {
      if (!options.exact_membership) return false;
      for (const GlobalCandidate& c : cands) {
        const double hi = prob_hi(c.scaled_global);
        const double lo = prob_lo(c.scaled_global);
        if (lo < threshold && hi >= threshold) return true;
      }
      return false;
    };
    size_t rounds = 0;
    while (((options.refine_probabilities && !accuracy_certified()) ||
            membership_undecided()) &&
           rounds++ < kMaxRefineRounds) {
      const double gap = global_hi - global_lo;
      double budget = std::numeric_limits<double>::infinity();
      if (options.refine_probabilities && !accuracy_certified()) {
        budget = global_lo > 0.0 ? options.probability_accuracy * global_lo
                                 : 0.5 * gap;
      }
      // Membership has no closed-form budget (it depends on where candidate
      // intervals straddle the threshold): halve until every straddle
      // resolves.
      if (membership_undecided()) budget = std::min(budget, 0.5 * gap);
      budget = std::max(budget, kGapFloor);
      const RoundOutcome round = RefineRound(runs, scale.factor, budget);
      if (!round.error.ok()) {
        ReleaseAll(runs);
        return ShardErrorResponse(QueryKind::kTiq, round.error);
      }
      if (!round.progressed) break;
      CombineDenominator(runs, scale, &global_lo, &global_hi);
    }

    // Final filter under the combined bounds, mirroring the single-tree
    // reporting rules (TiqTraversal::Result): exact mode keeps certified
    // members (midpoint filter for robustness), lazy mode keeps every
    // candidate whose upper bound still qualifies.
    if (global_lo > 0.0) {
      std::stable_sort(cands.begin(), cands.end(),
                       [](const GlobalCandidate& a, const GlobalCandidate& b) {
                         return a.scaled_global > b.scaled_global;
                       });
      for (const GlobalCandidate& c : cands) {
        const double hi = prob_hi(c.scaled_global);
        const double lo = prob_lo(c.scaled_global);
        const double mid = 0.5 * (hi + lo);
        if (options.exact_membership ? mid < threshold : hi < threshold) {
          continue;
        }
        IdentificationResult item;
        item.id = c.obj.id;
        item.log_density = c.obj.log_density;
        item.probability = mid;
        item.probability_error = 0.5 * (hi - lo);
        resp.items.push_back(item);
      }
    }
  }
  resp.stats = SumStats(runs, global_lo, global_hi);
  ReleaseAll(runs);
  return resp;
}

BatchResult ShardCoordinator::ExecuteBatch(const std::vector<Query>& batch) {
  const BackendRefineCounters refine_before = refine_counters();
  BatchResult result = pool_.ExecuteBatch(batch, [this] { return io_stats(); });
  const BackendRefineCounters refine_after = refine_counters();
  result.stats.refine_rounds = refine_after.rounds - refine_before.rounds;
  result.stats.refine_batched_queries =
      refine_after.requests - refine_before.requests;
  return result;
}

IoStats ShardCoordinator::io_stats() const {
  IoStats total;
  for (ShardBackend* backend : backends_) {
    ShardBackend::StatsResult stats = backend->FetchStats();
    if (stats.error.ok()) total += stats.io;
  }
  return total;
}

std::vector<uint64_t> ShardCoordinator::seed_counts() const {
  std::vector<uint64_t> counts(backends_.size());
  for (size_t s = 0; s < counts.size(); ++s) {
    counts[s] = seed_counts_[s].load(std::memory_order_relaxed);
  }
  return counts;
}

BackendRefineCounters ShardCoordinator::refine_counters() const {
  BackendRefineCounters total;
  for (const ShardBackend* backend : backends_) {
    const BackendRefineCounters c = backend->refine_counters();
    total.rounds += c.rounds;
    total.requests += c.requests;
  }
  return total;
}

}  // namespace gauss
