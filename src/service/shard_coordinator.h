#ifndef GAUSS_SERVICE_SHARD_COORDINATOR_H_
#define GAUSS_SERVICE_SHARD_COORDINATOR_H_

#include <atomic>
#include <cstddef>
#include <future>
#include <memory>
#include <utility>
#include <vector>

#include "net/shard_backend.h"
#include "service/query.h"
#include "service/query_service.h"
#include "service/service_stats.h"
#include "storage/io_stats.h"

namespace gauss {

// ============================ ShardCoordinator ==============================
//
// The front door of a sharded GaussDb: one Submit()/ExecuteBatch() surface
// over N shards, each serving one Gauss-tree holding one part of the
// gallery — a region of the feature space (api/partitioner.h). Nothing
// below assumes it: the merge is exact over any partition.
//
// The coordinator talks to its shards exclusively through the ShardBackend
// seam (net/shard_backend.h) — a shard may be an in-process tree
// (InProcessBackend, what GaussDb::Serve wires, traversed on the
// coordinator's own threads) or a remote gauss_shardd reached over the
// binary wire protocol (RpcBackend, what GaussDb::ServeRemote wires). The
// merge mathematics below is transport-agnostic, and the loopback
// differential in tests/shard_equivalence_test.cc proves both transports
// byte-identical.
//
// Why sharding is not just a union of per-shard answers: the identification
// probability P(v|q) is the object's density normalized by a denominator
// summed over *all* database objects (paper Section 3). Each shard traversal
// only bounds its own partial denominator, so the coordinator must combine
// the per-shard intervals — and when the combined interval is still too wide
// to certify an answer, resume refinement on individual shards:
//
//  * Scale. Each shard traversal works in its own reference scale (its
//    root's joint log upper hull). The coordinator rebases every shard onto
//    the *maximum* reference (factors exp(log_ref_s - log_ref_g) <= 1, so
//    rebasing can only shrink values — no overflow), under which per-shard
//    denominator bounds are summable: lo_g = sum_s lo_s*f_s, hi_g likewise.
//    Empty shards contribute nothing and are skipped.
//
//  * MLIQ. Each shard reports its local top-k by exact density. Any global
//    top-k object is necessarily in its own shard's local top-k (k local
//    winners beat every unexpanded object of that shard), so merging the
//    local lists by density and truncating to k is exact. Probabilities are
//    then certified against the combined denominator; while the combined
//    interval is wider than the requested accuracy, the coordinator issues
//    mass-proportional refinement rounds (see below) until it certifies.
//    The reported id set never changes during refinement.
//
//  * TIQ. Each shard's surviving candidates are a superset of its globally
//    qualifying objects (a shard-local denominator under-estimates the
//    combined one, so local upper-bound filtering is conservative — no
//    false dismissals). The coordinator re-filters the union under combined
//    bounds; in exact-membership mode it first issues refinement rounds to
//    the shards until no candidate's probability interval straddles the
//    threshold (a second scatter round per halving step), so the final set
//    equals the single-tree algorithm's. Lazy mode keeps the paper's
//    Figure 5 contract (no false dismissals; straddling candidates are
//    reported) without extra rounds.
//
// Refinement budgets (mass-proportional):
// refinement cost is made proportional to contribution. Per-shard Start
// queries suppress the shard-local relative certification (the coordinator
// certifies against the *combined* interval instead — refining every shard
// to a relative epsilon against its own bounds costs roughly the same I/O
// per shard regardless of how little mass the shard holds). Each round the
// coordinator water-fills a combined-gap budget over the per-shard
// global-scale gaps: shards whose gap already sits below the water level
// are skipped outright (no frame, no I/O), the rest refine down to the
// level. With a positive combined lower bound the budget is eps * lo, which
// certifies in a single round; with a zero lower bound the gap halves per
// round until mass appears or an absolute gap floor terminates the query
// (a relative test alone can never certify lo == 0). A bounded round cap
// backstops pathological non-progress. When every shard reports a coarse
// denominator sketch (ShardBackend::FetchSketch, cached here at
// construction), the Start queries already carry water-filled initial gap
// targets computed from hull bounds of the sketch, so round 1 starts from a
// tight combined interval instead of root-level bounds. The sketches also
// certify *pruning floors* shipped with every Start: for MLIQ, a log-density
// met by >= k objects fleet-wide (a shard stops identifying once no local
// subtree can strictly beat it); for TIQ, a lower bound on the combined
// denominator rebased into each shard's scale (shard-local upper-bound
// filtering divides by it instead of the ~N-times-smaller local bound).
// Both are conservative bounds, so answers stay byte-identical — only
// pages-per-query moves.
//
// Seeded Start (TPUT's first phase: Cao & Wang, "Efficient top-K query
// calculation in distributed networks", PODC 2004). Sketch floors alone are
// weak: a hull lower bound of a whole subtree is far below its best object.
// So when at least two shards have a non-empty sketch, the shard owning the
// sketch entry with the highest upper hull — the one most likely to hold
// the answer — Starts first. Only shards without a sketch (live deltas),
// which have nothing to rank them by, start beside it; every sketched shard
// waits. The rule does not depend on the transport, so RPC and in-process
// answers stay byte-equal. The seed's real answer then tightens every
// waiting shard's floor before its Start:
//   * MLIQ: once the seed returns >= k items, its k-th item and the k-1
//     above it are k real objects at or above its log-density, so that
//     density (or the sketch floor, if higher) is met by >= k objects
//     fleet-wide — a valid floor. A shard prunes only subtrees strictly
//     below it, so an exact tie still surfaces for the merge.
//   * TIQ: the combined denominator is at least the seed's real Start
//     lower bound plus every other shard's coarse sketch lower bound, all
//     rebased into the sketch's global scale. Each term is a true lower
//     bound of its shard's partial denominator, so the sum bounds the
//     whole; the seed's Start interval lies inside its coarse one, so it
//     is never looser than the sketch floor. It is rebased into each shard's
//     scale exactly like the sketch floor, and the larger of the two ships.
// The seed's Start only identifies; for a refining query its refinement to
// the planned gap target is a Refine of the same traversal, issued together
// with the other shards' Starts (over RPC it overlaps them) — the seed's
// traversal is its own round 1 and never runs twice. A per-shard query is
// never modified once its Start is issued (the backend holds a reference
// to it). A seed that fails releases every handle and fails the query with
// its typed error; no other shard starts. On spatial shards the seed
// usually holds the answer's neighborhood, and the other shards stop near
// their roots: pages/query stays near one tree's and flat in the shard
// count. In process, Starts run one after another on the coordinator
// thread anyway, so the seed's floor costs no latency; over RPC it costs
// one sequential round trip per query.
//
// All targets are computed at the coordinator from *transported* doubles
// (raw IEEE-754 over the wire), so RPC and in-process shards receive
// bit-identical targets and produce byte-identical answers.
//
// Refinement batching: each refinement round submits one RefineSpec per
// still-unconverged shard through ShardBackend::Refine. Over RPC, concurrent
// queries' rounds coalesce in the backend's RefineChannel, so a round costs
// one wire frame per shard no matter how many queries ride in it. In
// process there is no frame to save: each Refine runs on the calling thread
// and counts as one round. ExecuteBatch reports the rounds as
// ServiceStats::refine_rounds / refine_batched_queries.
//
// Admission control happens only here, never at the shards: the coordinator
// admits through the same internal::AdmissionPool as QueryService, supplying
// only ExecuteSharded as the function that answers one query, so it sheds
// and expires deadline-carrying queries exactly like QueryService — and a
// shed or expired query is counted once in the merged ServiceStats, not
// once per shard. Over RPC, a query's remaining deadline budget also travels
// with it and bounds the socket wait, so a too-slow shard yields a typed
// timeout, not a stall.
//
// Failure model: a backend failure (connection lost, timeout, protocol
// error) fails the *query* with QueryResponse::Status::kShardError and the
// typed NetError — never a hang, never a crash — and the remaining shards'
// traversal state is released. In-process backends fail only on a damaged
// node page (NetErrorCode::kCorrupt).
//
// Shutdown: the destructor closes the queue, drains every admitted query
// (in-flight scatter-gathers complete, or fail typed if their shard died),
// and joins the coordinator threads. The backends (and the trees under
// in-process ones) must outlive the coordinator.
// ============================================================================

// One shard's sketch entries as the coordinator plans with them: their
// counts, and their bounds as planes of the batch hull kernel
// (math/kernels.h), laid out once when the sketch is cached. Evaluate()
// scores every entry against a query in one kernels::HullIntegralBoundsBatch
// call, which by the kernel contract returns the bits of JointLogUpperHull /
// JointLogLowerHull per entry, on valid bounds (DimBounds::Valid) or NaN.
class SketchHulls {
 public:
  SketchHulls(const ShardSketch& sketch, size_t dim);

  size_t size() const { return counts_.size(); }
  // Objects under entry j.
  uint32_t count(size_t j) const { return counts_[j]; }

  // upper[j] and lower[j] = the joint log upper and lower hull of entry j
  // against (mu_q, sigma_q); both are resized to the entry count.
  void Evaluate(const double* mu_q, const double* sigma_q,
                std::vector<double>* upper, std::vector<double>* lower) const;

 private:
  size_t n_;
  size_t dim_;
  SigmaPolicy policy_;
  std::vector<uint32_t> counts_;
  std::vector<double> planes_;  // mu_lo, mu_hi, sigma_lo, sigma_hi groups
};

struct ShardCoordinatorOptions {
  // Threads executing queries: planning, merge and refinement, and — over
  // in-process backends — every shard traversal, which runs on the calling
  // thread, so no shard needs threads of its own. A local engine sizes them
  // like workers (min(serve budget, UsableCpus())); over RPC each blocks on
  // the wire, so a few go a long way.
  size_t num_threads = 2;
  // Bound of the front-door admission queue.
  size_t queue_capacity = 1024;
};

class ShardCoordinator {
 public:
  // `backends[s]` fronts shard s and must outlive the coordinator. At least
  // one shard; every shard must share one dimensionality.
  ShardCoordinator(std::vector<ShardBackend*> backends,
                   ShardCoordinatorOptions options = {});

  ShardCoordinator(const ShardCoordinator&) = delete;
  ShardCoordinator& operator=(const ShardCoordinator&) = delete;

  // Closes the queue, drains every admitted query, joins the threads.
  ~ShardCoordinator() = default;

  // Streaming submission through the same internal::AdmissionPool as
  // QueryService::Submit: deadline queries are shed at a full queue /
  // expired before execution; deadline-less queries block (backpressure).
  // Thread-safe.
  std::future<QueryResponse> Submit(Query query) {
    return pool_.Submit(std::move(query));
  }

  // Batch submission: submit-and-gather over Submit() with merged
  // ServiceStats (latency percentiles over executed queries; shed, expired
  // and shard-error queries counted once; IoStats and refinement-round
  // counters summed over the shard backends). Thread-safe.
  BatchResult ExecuteBatch(const std::vector<Query>& batch);

  // Sum of the shard caches' I/O counters (shards whose backend fails to
  // report are skipped).
  IoStats io_stats() const;

  // Sum of the backends' refinement batching counters.
  BackendRefineCounters refine_counters() const;

  // Per shard: how many queries it seeded (see "Seeded Start" above).
  std::vector<uint64_t> seed_counts() const;

  size_t num_shards() const { return backends_.size(); }
  size_t dim() const { return dim_; }
  // Coordinator threads executing queries (ShardCoordinatorOptions::
  // num_threads, at least 1).
  size_t num_threads() const { return pool_.num_threads(); }

 private:
  // One shard's live traversal during a query: its backend-side handle and
  // the latest partial state (Start fills it; refinement rounds overwrite
  // bounds and cumulative work counters in place).
  struct ShardRun {
    uint64_t id = 0;
    ShardPartial partial;
  };

  struct StartOutcome {
    NetError error;  // first shard failure; runs are partial if set
    std::vector<ShardRun> runs;
  };

  struct RoundOutcome {
    bool progressed = false;
    NetError error;
  };

  QueryResponse ExecuteSharded(const Query& query);
  QueryResponse ExecuteMliq(const Query& query);
  QueryResponse ExecuteTiq(const Query& query);

  // Round 1 on every shard: allocate handles, Start the traversals (the
  // seed first when the plan has one), gather all partials (gathers
  // everything even on failure, so no future leaks).
  StartOutcome StartAll(const Query& query);
  static constexpr size_t kNoSeed = static_cast<size_t>(-1);

  // Everything the cached sketches certify about one query before any shard
  // runs: per-shard initial gap targets (refining queries), per-shard
  // combined-denominator floors (TIQ pruning), the global k-th density
  // floor (MLIQ phase-1 pruning), and the seed. `valid` is false when no
  // sketch covers a non-empty shard.
  struct SketchPlan {
    bool valid = false;
    // The seeded Start's first shard (the owner of the sketch entry with the
    // highest upper hull); kNoSeed when fewer than two shards are sketched.
    size_t seed = kNoSeed;
    // Global sketch scale (the maximum root upper hull), each shard's
    // rebasing factor into it, and each shard's coarse denominator lower
    // bound in it — what the seed's real bound is combined with.
    double log_ref = 0.0;
    std::vector<double> factor;
    std::vector<double> coarse_lo;
    // Per-shard local-scale absolute gap targets; -1 = none.
    std::vector<double> targets;
    // Per-shard local-scale lower bounds on the *combined* denominator
    // (TiqOptions::denominator_floor); 0 = none.
    std::vector<double> den_floors;
    // Log-density certified to be met by >= k objects fleet-wide
    // (MliqOptions::density_floor_log); -inf = none.
    double density_floor_log = 0.0;
  };
  // Fills `out` with one per-shard copy of `query` carrying the
  // sketch-derived floors, and — for probability-refining queries —
  // suppressing shard-local certification in favor of the coordinator's
  // budgets; `plan` receives the sketch plan. Returns false (out untouched)
  // when the shards should just run `query` as-is.
  bool PlanShardQueries(const Query& query, std::vector<Query>* out,
                        SketchPlan* plan) const;
  // Seeded Start, between the seed's Start and everyone else's: raises the
  // floors of the shards not `started` yet in `shard_queries` with the
  // seed's real answer (MLIQ: its k-th density; TIQ: its denominator lower
  // bound).
  void TightenFromSeed(const Query& query, const SketchPlan& plan,
                       const ShardPartial& seed,
                       const std::vector<bool>& started,
                       std::vector<Query>* shard_queries) const;
  // Evaluates the cached sketches against one query (hull integrals, the
  // same arithmetic the shards' round 1 performs). No-op plan without
  // sketches.
  SketchPlan PlanFromSketches(const Query& query) const;
  // One refinement round: water-fill `budget` (an absolute combined-scale
  // gap) over the shards' rebased gaps (factor[s] = shard->global rebase,
  // <= 1) and skip shards already below the level. Updates `runs` in place.
  RoundOutcome RefineRound(std::vector<ShardRun>& runs,
                           const std::vector<double>& factor, double budget);
  // Frees backend-side traversal state (fire-and-forget).
  void ReleaseAll(const std::vector<ShardRun>& runs);

  std::vector<ShardBackend*> backends_;
  // Per-shard coarse denominator sketches, fetched once at construction.
  // All-or-nothing (have_sketches_), so planning is deterministic. A cached
  // sketch keeps no entries: they live on as its SketchHulls.
  std::vector<ShardSketch> sketches_;
  std::vector<SketchHulls> sketch_hulls_;  // one per sketch
  bool have_sketches_ = false;
  std::unique_ptr<std::atomic<uint64_t>[]> seed_counts_;  // per shard
  size_t dim_ = 0;
  std::atomic<uint64_t> next_traversal_id_{1};
  // Last member: its threads run ExecuteSharded, so it is destroyed (drained
  // and joined) before anything that function reads.
  internal::AdmissionPool pool_;
};

}  // namespace gauss

#endif  // GAUSS_SERVICE_SHARD_COORDINATOR_H_
