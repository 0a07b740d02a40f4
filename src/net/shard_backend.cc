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

DeltaBackend::DeltaBackend(std::shared_ptr<const DeltaTree> delta,
                           SigmaPolicy policy)
    : delta_(std::move(delta)), policy_(policy) {
  GAUSS_CHECK(delta_ != nullptr);
}

size_t DeltaBackend::dim() const { return delta_->dim(); }

std::future<ShardBackend::StartResult> DeltaBackend::Start(
    uint64_t traversal, const Query& query) {
  StartResult result;
  ShardPartial& partial = result.partial;
  const size_t n = delta_->size();  // snapshot: the query's delta prefix
  partial.tree_size = n;
  if (n == 0) return ReadyFuture(std::move(result));

  // Exact per-object joint log densities over the delta's SoA planes — one
  // batch kernel call for the whole prefix, same arithmetic the tree
  // traversals bottom out in, so the combined answer matches a tree holding
  // these objects to the last bit of certified probability.
  std::vector<double> log_density(n);
  kernels::JointBatchArgs args;
  args.mu = delta_->mu_planes();
  args.sigma = delta_->sigma_planes();
  args.stride = delta_->plane_stride();
  args.n = n;
  args.dim = delta_->dim();
  args.mu_q = query.pfv().mu.data();
  args.sigma_q = query.pfv().sigma.data();
  args.policy = policy_;
  kernels::JointLogDensityBatch(args, log_density.data());
  double log_ref = -std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < n; ++i) log_ref = std::max(log_ref, log_density[i]);
  partial.log_ref = log_ref;

  KahanSum denominator;
  std::vector<double> scaled(n);
  kernels::ExpShiftBatch(log_density.data(), log_ref, n, scaled.data());
  for (size_t i = 0; i < n; ++i) denominator.Add(scaled[i]);
  partial.denominator_lo = denominator.Value();
  partial.denominator_hi = denominator.Value();
  partial.exhausted = true;
  partial.objects_evaluated = n;

  if (query.kind() == QueryKind::kMliq) {
    // Local top-k at or above the certified fleet-wide density floor. A tie
    // with the floor must still surface (the floor certifies >= k objects at
    // or above it); surplus items are harmless — the coordinator's merge
    // truncates to k.
    const double floor_log = query.mliq_options().density_floor_log;
    for (size_t i = 0; i < n; ++i) {
      if (log_density[i] < floor_log) continue;
      partial.items.push_back({delta_->at(i).id, scaled[i], log_density[i]});
    }
    std::stable_sort(partial.items.begin(), partial.items.end(),
                     [](const ScoredObject& a, const ScoredObject& b) {
                       return a.scaled_density > b.scaled_density;
                     });
    if (partial.items.size() > query.k()) partial.items.resize(query.k());
  } else {
    // Conservative local filter, identical to the tree shards': drop a
    // candidate only when its probability upper bound under the larger of
    // the exact local denominator and the certified combined floor falls
    // strictly below the threshold. No false dismissals; the coordinator
    // re-filters the union under combined bounds.
    const double den_floor =
        std::max(denominator.Value(), query.tiq_options().denominator_floor);
    for (size_t i = 0; i < n; ++i) {
      const double prob_hi =
          den_floor > 0.0 ? std::min(1.0, scaled[i] / den_floor) : 1.0;
      if (prob_hi < query.threshold()) continue;
      partial.items.push_back({delta_->at(i).id, scaled[i], log_density[i]});
    }
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    traversals_[traversal] = State{denominator.Value(), n};
  }
  return ReadyFuture(std::move(result));
}

std::future<ShardBackend::RefineResult> DeltaBackend::Refine(
    std::vector<RefineSpec> specs) {
  // Defensive: every refinement policy skips exhausted traversals, so this
  // path is never exercised by the coordinator — but answering with the
  // stored exact state keeps the backend honest if that ever changes.
  RefineResult result;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++counters_.rounds;
    counters_.requests += specs.size();
    for (const RefineSpec& spec : specs) {
      auto it = traversals_.find(spec.traversal);
      GAUSS_CHECK_MSG(it != traversals_.end(), "Refine on an unknown traversal");
      RefineUpdate update;
      update.denominator_lo = it->second.denominator;
      update.denominator_hi = it->second.denominator;
      update.exhausted = true;
      update.objects_evaluated = it->second.objects;
      result.updates.push_back(update);
    }
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
  result.sketch.tree_size = n;
  result.sketch.sigma_policy = policy_;
  if (n == 0) return result;
  result.sketch.root_bounds.assign(delta_->dim(), DimBounds{});
  for (size_t d = 0; d < delta_->dim(); ++d) {
    DimBounds& b = result.sketch.root_bounds[d];
    b = {delta_->at(0).mu[d], delta_->at(0).mu[d], delta_->at(0).sigma[d],
         delta_->at(0).sigma[d]};
    for (size_t i = 1; i < n; ++i) {
      const Pfv& v = delta_->at(i);
      b.mu_lo = std::min(b.mu_lo, v.mu[d]);
      b.mu_hi = std::max(b.mu_hi, v.mu[d]);
      b.sigma_lo = std::min(b.sigma_lo, v.sigma[d]);
      b.sigma_hi = std::max(b.sigma_hi, v.sigma[d]);
    }
  }
  result.sketch.entries.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const Pfv& v = delta_->at(i);
    ShardSketchEntry entry;
    entry.count = 1;
    entry.bounds.resize(delta_->dim());
    for (size_t d = 0; d < delta_->dim(); ++d) {
      entry.bounds[d] = {v.mu[d], v.mu[d], v.sigma[d], v.sigma[d]};
    }
    result.sketch.entries.push_back(std::move(entry));
  }
  return result;
}

BackendRefineCounters DeltaBackend::refine_counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

}  // namespace gauss
