#include "net/shard_backend.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/log_sum_exp.h"
#include "common/macros.h"
#include "gausstree/delta_tree.h"
#include "math/kernels.h"

namespace gauss {

// ----------------------------- InProcessBackend -----------------------------

namespace {

// The bounds and cumulative work counters of an MLIQ or TIQ traversal.
template <typename Traversal>
RefineUpdate UpdateFrom(const Traversal& t) {
  RefineUpdate u;
  const TraversalStats s = t.stats();
  u.denominator_lo = t.denominator_lo();
  u.denominator_hi = t.denominator_hi();
  u.exhausted = t.exhausted();
  u.nodes_visited = s.nodes_visited;
  u.leaf_nodes_visited = s.leaf_nodes_visited;
  u.objects_evaluated = s.objects_evaluated;
  return u;
}

template <typename Traversal>
void FillPartial(const Traversal& t, ShardPartial* p) {
  const RefineUpdate u = UpdateFrom(t);
  p->log_ref = t.log_ref();
  p->denominator_lo = u.denominator_lo;
  p->denominator_hi = u.denominator_hi;
  p->exhausted = u.exhausted;
  p->nodes_visited = u.nodes_visited;
  p->leaf_nodes_visited = u.leaf_nodes_visited;
  p->objects_evaluated = u.objects_evaluated;
}

template <typename T>
std::future<T> ReadyFuture(T value) {
  std::promise<T> promise;
  promise.set_value(std::move(value));
  return promise.get_future();
}

}  // namespace

NetError CorruptPageError() {
  return {NetErrorCode::kCorrupt,
          "the shard traversal reached a damaged node page"};
}

ShardSketch BuildShardSketch(const GaussTree& tree) {
  ShardSketch sketch;
  sketch.tree_size = tree.size();
  sketch.sigma_policy = tree.options().sigma_policy;
  if (sketch.tree_size == 0) return sketch;

  GtNode root;
  tree.store().Load(tree.root(), &root);
  sketch.root_bounds = root.ComputeBounds(tree.dim());
  if (root.leaf()) {
    // Degenerate per-object bounds: the hull of a point MBR is the exact
    // joint density, so the sketch interval collapses to the true partial
    // denominator for single-level shards.
    sketch.entries.reserve(root.pfvs.size());
    for (const Pfv& v : root.pfvs) {
      ShardSketchEntry entry;
      entry.count = 1;
      entry.bounds.resize(tree.dim());
      for (size_t d = 0; d < tree.dim(); ++d) {
        entry.bounds[d] = {v.mu[d], v.mu[d], v.sigma[d], v.sigma[d]};
      }
      sketch.entries.push_back(std::move(entry));
    }
  } else {
    sketch.entries.reserve(root.children.size());
    for (const GtChildEntry& e : root.children) {
      sketch.entries.push_back({e.count, e.bounds});
    }
  }
  return sketch;
}

InProcessBackend::InProcessBackend(QueryService* service) : service_(service) {
  GAUSS_CHECK(service_ != nullptr);
  GAUSS_CHECK_MSG(service_->tree().pool()->thread_safe(),
                  "multi-worker serving needs a thread-safe PageCache "
                  "(use ShardedBufferPool)");
}

size_t InProcessBackend::dim() const { return service_->tree().dim(); }

std::future<ShardBackend::StartResult> InProcessBackend::Start(
    uint64_t traversal, const Query& query) {
  StartResult result;
  Traversal t;
  if (query.kind() == QueryKind::kMliq) {
    t.mliq = std::make_shared<MliqTraversal>(service_->tree(), query.pfv(),
                                             query.k(), query.mliq_options());
    t.mliq->Run();
    FillPartial(*t.mliq, &result.partial);
    result.partial.items = t.mliq->top_items();
  } else {
    t.tiq = std::make_shared<TiqTraversal>(service_->tree(), query.pfv(),
                                           query.threshold(),
                                           query.tiq_options());
    t.tiq->Run();
    FillPartial(*t.tiq, &result.partial);
    result.partial.items = t.tiq->candidates();
  }
  result.partial.tree_size = service_->tree().size();
  if (t.mliq ? t.mliq->corrupt() : t.tiq->corrupt()) {
    result.error = CorruptPageError();
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    traversals_[traversal] = std::move(t);
  }
  return ReadyFuture(std::move(result));
}

std::future<ShardBackend::RefineResult> InProcessBackend::Refine(
    std::vector<RefineSpec> specs) {
  RefineResult result;
  // Every handle is looked up before any refinement runs, so an unknown one
  // (never started, or already released) fails the round with no work done.
  std::vector<Traversal> batch;
  batch.reserve(specs.size());
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++counters_.rounds;
    counters_.requests += specs.size();
    for (const RefineSpec& spec : specs) {
      auto it = traversals_.find(spec.traversal);
      if (it == traversals_.end()) {
        result.error = {NetErrorCode::kProtocolError, "unknown traversal"};
        return ReadyFuture(std::move(result));
      }
      batch.push_back(it->second);
    }
  }
  // Refined without the lock: the batch holds its own references.
  for (size_t i = 0; i < specs.size(); ++i) {
    const Traversal& t = batch[i];
    if (t.mliq) {
      t.mliq->RefineDenominator(specs[i].max_gap);
      result.updates.push_back(UpdateFrom(*t.mliq));
    } else {
      t.tiq->RefineDenominator(specs[i].max_gap);
      result.updates.push_back(UpdateFrom(*t.tiq));
    }
    if (t.mliq ? t.mliq->corrupt() : t.tiq->corrupt()) {
      result.error = CorruptPageError();
    }
  }
  // A damaged page fails the whole round, like a transport failure.
  if (!result.error.ok()) result.updates.clear();
  return ReadyFuture(std::move(result));
}

void InProcessBackend::Release(const std::vector<uint64_t>& traversals) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const uint64_t id : traversals) traversals_.erase(id);
}

ShardBackend::StatsResult InProcessBackend::FetchStats() {
  StatsResult result;
  result.io = service_->tree().pool()->stats();
  return result;
}

ShardBackend::SketchResult InProcessBackend::FetchSketch() {
  SketchResult result;
  result.sketch = BuildShardSketch(service_->tree());
  return result;
}

BackendRefineCounters InProcessBackend::refine_counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

// ------------------------------- DeltaBackend -------------------------------

namespace {

// Below this many objects the bound pass costs more than the exact scores
// it saves. Measured per Start over data set 2 enrollments and the e2e
// probe pool (AVX-512): 1.0 against 0.4 us at 1 object, even at 48-64,
// 4.9 against 5.7 us at 128.
constexpr size_t kBoundMinObjects = 64;

// Why an object the cut skips scales to exactly +0, so that skipping it
// changes no bit of the answer. Let L be the kernel's log density of the
// object with the largest bound; log_ref, the maximum over all objects, is
// at least L. For object j and dimension d let diff = mu_jd - mu_qd (the
// same double in the kernel and the bound pass) and s the combined sigma
// the kernel uses. CombineSigma rounds monotonically in the object's sigma,
// so s_lo <= s <= s_hi, and in real arithmetic (c = ln sqrt(2 pi))
//   T_j = sum_d -(diff/s)^2 / 2 - ln s - c
//      <= U_j = sum_d -(diff/s_hi)^2 / 2 - ln s_lo - c.
// The kernel's ld_j and the bound pass's B_j evaluate these sums in double,
// each term in a few roundings (PortableLog within 2 ulp of ln), so each
// lies within gamma * A of its real value, gamma = 4 (dim + 8) 2^-53 and A
// the sum of the terms' magnitudes. With every |ln s| <= 346.6 (combined
// sigmas in [2^-500, 2^500], checked per query), A <= -T_j + K (and
// -U_j + K for the bound), K = 2 dim 346.6. Chaining
//   ld_j <= (1 - gamma) T_j + gamma K  and  B_j >= (1 + gamma) U_j - gamma K
// gives ld_j <= B_j + 2 gamma K + 2 gamma |B_j + gamma K|, which increases
// with B_j; so B_j < L - 768 implies
//   ld_j < L - 768 + slack,  slack = 2 gamma K + 2 gamma (|L| + 768 + gamma K).
// CutFor prunes only when L is finite and slack <= 22, leaving
// ld_j - log_ref < -746 after rounding L - 768 and the kernels' own
// subtraction, and PortableExp returns +0 below -745.1332 (kernels.cc's
// kExpUnderflow). The bound pass squares w = diff * sqrt(0.5) / s_hi:
// where w * w overflows, (diff/s)^2 >= 2 w^2 overflows in the kernel too
// (ld_j = -inf), and an underflowing w * w errs by at most 2^-1074.
constexpr double kCutMargin = 768.0;
constexpr double kCutSlack = 22.0;
// The combined sigma range a pruned scan accepts, and its |ln s| bound
// (500 ln 2, rounded up).
constexpr double kMinBoundSigma = 0x1p-500;
constexpr double kMaxBoundSigma = 0x1p500;
constexpr double kMaxAbsLogSigma = 346.6;

// Per-thread buffers of the scan, grown to the largest delta seen and then
// reused: a Start allocates nothing but its answer's item list.
struct DeltaScratch {
  std::vector<double> bound;        // per object: upper bound on its ld
  std::vector<double> scale;        // per dimension: sqrt(0.5) / s_hi
  std::vector<size_t> scored;       // indices of the objects to score
  std::vector<double> planes;       // their 2 * dim planes, stride m
  std::vector<double> log_density;  // per scored object
  std::vector<double> scaled;       // per scored object
};

DeltaScratch& Scratch() {
  thread_local DeltaScratch scratch;
  return scratch;
}

kernels::JointBatchArgs QueryArgs(const Pfv& q, size_t dim,
                                  SigmaPolicy policy) {
  kernels::JointBatchArgs args;
  args.dim = dim;
  args.mu_q = q.mu.data();
  args.sigma_q = q.sigma.data();
  args.policy = policy;
  return args;
}

// Fills s.bound[0, n) with upper bounds on each object's joint log density
// and returns the cut (see kCutMargin), or -inf when the bound cannot
// be trusted for this query and the scan must score every object.
double CutFor(const DeltaTree& delta, size_t n, const Pfv& q,
              SigmaPolicy policy, DeltaScratch& s) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const size_t dim = delta.dim();
  const size_t stride = delta.plane_stride();
  double constant = 0.0;
  s.scale.resize(dim);
  for (size_t d = 0; d < dim; ++d) {
    const double s_lo = CombineSigma(delta.sigma_min(d), q.sigma[d], policy);
    const double s_hi = CombineSigma(delta.sigma_max(d), q.sigma[d], policy);
    if (!(s_lo >= kMinBoundSigma && s_hi <= kMaxBoundSigma)) return -kInf;
    constant += -kernels::PortableLog(s_lo) - kLogSqrt2Pi;
    s.scale[d] = std::sqrt(0.5) / s_hi;
  }
  s.bound.assign(n, constant);
  double* bound = s.bound.data();
  for (size_t d = 0; d < dim; ++d) {
    const double* mu = delta.mu_planes() + d * stride;
    const double mu_q = q.mu[d];
    const double scale = s.scale[d];
    for (size_t j = 0; j < n; ++j) {
      const double w = (mu[j] - mu_q) * scale;
      bound[j] -= w * w;
    }
  }
  size_t best = 0;
  for (size_t j = 1; j < n; ++j) {
    if (bound[j] > bound[best]) best = j;
  }
  kernels::JointBatchArgs args = QueryArgs(q, dim, policy);
  args.mu = delta.mu_planes() + best;
  args.sigma = delta.sigma_planes() + best;
  args.stride = stride;
  args.n = 1;
  double best_log = 0.0;
  kernels::JointLogDensityBatch(args, &best_log);
  // The rounding slack of kCutMargin's argument at this L.
  const double gamma = 4.0 * static_cast<double>(dim + 8) * 0x1p-53;
  const double big_k = 2.0 * static_cast<double>(dim) * kMaxAbsLogSigma;
  const double slack =
      2.0 * gamma * big_k +
      2.0 * gamma * (std::fabs(best_log) + kCutMargin + gamma * big_k);
  if (!std::isfinite(best_log) || !(slack <= kCutSlack)) return -kInf;
  return best_log - kCutMargin;
}

// The query answer over the scored objects s.scored (ascending indices), the
// others taken to scale to +0; false when an unscored object could reach the
// items, which only a full scan may then decide. `full` says s.scored is
// every object.
bool Answer(const DeltaTree& delta, size_t n, const Query& query, bool full,
            double log_ref, const DeltaScratch& s, ShardPartial* partial) {
  const size_t m = s.scored.size();
  const double* log_density = s.log_density.data();
  const double* scaled = s.scaled.data();

  // Index order, +0 for every unscored object: the full scan's additions.
  KahanSum denominator;
  size_t next = 0;
  for (size_t k = 0; k < m; ++k) {
    denominator.AddZeros(s.scored[k] - next);
    denominator.Add(scaled[k]);
    next = s.scored[k] + 1;
  }
  denominator.AddZeros(n - next);

  const uint64_t* ids = delta.ids();
  std::vector<ScoredObject>& items = partial->items;
  if (query.kind() == QueryKind::kMliq) {
    // Local top-k at or above the certified fleet-wide density floor. A tie
    // with the floor must still surface (the floor certifies >= k objects at
    // or above it); surplus items are harmless — the coordinator's merge
    // truncates to k. Insertion keeps ties in index order, which is a
    // stable sort by descending scaled density truncated to k.
    const double floor_log = query.mliq_options().density_floor_log;
    const size_t k = query.k();
    if (!full) {
      // An unscored object at or above the floor scales to +0, so it stays
      // out of the top k only behind k objects that scale above it.
      size_t positive = 0;
      for (size_t j = 0; j < m; ++j) {
        positive += log_density[j] >= floor_log && scaled[j] > 0.0;
      }
      if (positive < k) return false;
    }
    items.reserve(std::min(k, m));
    for (size_t j = 0; j < m && k > 0; ++j) {
      if (log_density[j] < floor_log) continue;
      if (items.size() == k) {
        if (!(scaled[j] > items.back().scaled_density)) continue;
        items.pop_back();
      }
      const auto at = std::upper_bound(
          items.begin(), items.end(), scaled[j],
          [](double v, const ScoredObject& e) { return v > e.scaled_density; });
      items.insert(at, {ids[s.scored[j]], scaled[j], log_density[j]});
    }
  } else {
    // Conservative local filter, identical to the tree shards': drop a
    // candidate only when its probability upper bound under the larger of
    // the exact local denominator and the certified combined floor falls
    // strictly below the threshold. No false dismissals; the coordinator
    // re-filters the union under combined bounds.
    const double den_floor =
        std::max(denominator.Value(), query.tiq_options().denominator_floor);
    // An unscored object's bound is min(1, 0 / den_floor) = 0, which the
    // filter drops only for a positive floor and threshold.
    if (!full && !(den_floor > 0.0 && query.threshold() > 0.0)) return false;
    for (size_t j = 0; j < m; ++j) {
      const double prob_hi =
          den_floor > 0.0 ? std::min(1.0, scaled[j] / den_floor) : 1.0;
      if (prob_hi < query.threshold()) continue;
      items.push_back({ids[s.scored[j]], scaled[j], log_density[j]});
    }
  }
  partial->log_ref = log_ref;
  partial->denominator_lo = denominator.Value();
  partial->denominator_hi = denominator.Value();
  return true;
}

// Scores exactly the objects whose bound reaches `cut` (every object when
// cut is -inf) and answers the query from them; false when an object below
// the cut could reach the items. The bounds are s.bound's.
bool ScanAbove(const DeltaTree& delta, size_t n, const Query& query,
               SigmaPolicy policy, double cut, DeltaScratch& s,
               ShardPartial* partial) {
  const bool full = cut == -std::numeric_limits<double>::infinity();
  const size_t dim = delta.dim();
  const size_t stride = delta.plane_stride();
  s.scored.clear();
  for (size_t j = 0; j < n; ++j) {
    if (full || !(s.bound[j] < cut)) s.scored.push_back(j);
  }
  const size_t m = s.scored.size();
  kernels::JointBatchArgs args = QueryArgs(query.pfv(), dim, policy);
  args.n = m;
  if (m == n) {
    args.mu = delta.mu_planes();
    args.sigma = delta.sigma_planes();
    args.stride = stride;
  } else {
    // Gather the scored objects' planes (mu planes, then sigma planes; plane
    // a of the delta starts at mu_planes() + a * stride). The kernels score
    // each object on its own, bit-identically on any grouping.
    s.planes.resize(2 * dim * m);
    for (size_t a = 0; a < 2 * dim; ++a) {
      const double* from = delta.mu_planes() + a * stride;
      double* to = s.planes.data() + a * m;
      for (size_t k = 0; k < m; ++k) to[k] = from[s.scored[k]];
    }
    args.mu = s.planes.data();
    args.sigma = s.planes.data() + dim * m;
    args.stride = m;
  }
  s.log_density.resize(m);
  s.scaled.resize(m);
  kernels::JointLogDensityBatch(args, s.log_density.data());
  // The maximum over all objects: an unscored one lies below L (kCutMargin).
  double log_ref = -std::numeric_limits<double>::infinity();
  for (const double ld : s.log_density) log_ref = std::max(log_ref, ld);
  kernels::ExpShiftBatch(s.log_density.data(), log_ref, m, s.scaled.data());
  return Answer(delta, n, query, full, log_ref, s, partial);
}

}  // namespace

DeltaScanStats ScanDelta(const DeltaTree& delta, size_t n, const Query& query,
                         SigmaPolicy policy, ShardPartial* partial) {
  partial->tree_size = n;
  partial->exhausted = true;
  partial->objects_evaluated = n;
  if (n == 0) return {};
  DeltaScratch& s = Scratch();
  if (n >= kBoundMinObjects) {
    const double cut = CutFor(delta, n, query.pfv(), policy, s);
    if (cut != -std::numeric_limits<double>::infinity() &&
        ScanAbove(delta, n, query, policy, cut, s, partial)) {
      return {s.scored.size(), false};
    }
  }
  ScanAbove(delta, n, query, policy,
            -std::numeric_limits<double>::infinity(), s, partial);
  return {n, true};
}

DeltaBackend::DeltaBackend(std::shared_ptr<const DeltaTree> delta,
                           SigmaPolicy policy)
    : delta_(std::move(delta)), policy_(policy) {
  GAUSS_CHECK(delta_ != nullptr);
}

size_t DeltaBackend::dim() const { return delta_->dim(); }

std::future<ShardBackend::StartResult> DeltaBackend::Start(
    uint64_t traversal, const Query& query) {
  StartResult result;
  const size_t n = delta_->size();  // snapshot: the query's delta prefix
  ScanDelta(*delta_, n, query, policy_, &result.partial);
  if (n > 0) {
    std::lock_guard<std::mutex> lock(mu_);
    traversals_[traversal] = State{result.partial.denominator_lo, n};
  }
  return ReadyFuture(std::move(result));
}

std::future<ShardBackend::RefineResult> DeltaBackend::Refine(
    std::vector<RefineSpec> specs) {
  // Every refinement policy skips exhausted traversals, so the coordinator
  // never sends one here; a round that does is answered from the stored
  // exact state, and one naming an unknown handle fails typed with no
  // updates, as InProcessBackend's does.
  RefineResult result;
  std::lock_guard<std::mutex> lock(mu_);
  ++counters_.rounds;
  counters_.requests += specs.size();
  for (const RefineSpec& spec : specs) {
    auto it = traversals_.find(spec.traversal);
    if (it == traversals_.end()) {
      result.error = {NetErrorCode::kProtocolError, "unknown traversal"};
      result.updates.clear();
      return ReadyFuture(std::move(result));
    }
    RefineUpdate update;
    update.denominator_lo = it->second.denominator;
    update.denominator_hi = it->second.denominator;
    update.exhausted = true;
    update.objects_evaluated = it->second.objects;
    result.updates.push_back(update);
  }
  return ReadyFuture(std::move(result));
}

void DeltaBackend::Release(const std::vector<uint64_t>& traversals) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const uint64_t id : traversals) traversals_.erase(id);
}

ShardBackend::StatsResult DeltaBackend::FetchStats() {
  return StatsResult{};  // in-memory: no pages, no I/O counters
}

ShardBackend::SketchResult DeltaBackend::FetchSketch() {
  // Degenerate per-object entries, like BuildShardSketch's leaf-root case.
  // In practice the coordinator fetches at epoch construction, when the
  // delta is empty (objects enrolled later only *raise* the true combined
  // denominator and the k-th best density, so the cached floors stay
  // conservative for every later query).
  SketchResult result;
  const size_t n = delta_->size();
  const size_t dim = delta_->dim();
  const size_t stride = delta_->plane_stride();
  result.sketch.tree_size = n;
  result.sketch.sigma_policy = policy_;
  if (n == 0) return result;
  result.sketch.root_bounds.assign(dim, DimBounds{});
  result.sketch.entries.assign(n, ShardSketchEntry{1, {}});
  for (ShardSketchEntry& entry : result.sketch.entries) {
    entry.bounds.resize(dim);
  }
  for (size_t d = 0; d < dim; ++d) {
    const double* mu = delta_->mu_planes() + d * stride;
    const double* sigma = delta_->sigma_planes() + d * stride;
    DimBounds& b = result.sketch.root_bounds[d];
    b = {mu[0], mu[0], sigma[0], sigma[0]};
    for (size_t i = 0; i < n; ++i) {
      b.mu_lo = std::min(b.mu_lo, mu[i]);
      b.mu_hi = std::max(b.mu_hi, mu[i]);
      b.sigma_lo = std::min(b.sigma_lo, sigma[i]);
      b.sigma_hi = std::max(b.sigma_hi, sigma[i]);
      result.sketch.entries[i].bounds[d] = {mu[i], mu[i], sigma[i], sigma[i]};
    }
  }
  return result;
}

BackendRefineCounters DeltaBackend::refine_counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

}  // namespace gauss
