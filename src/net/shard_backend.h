#ifndef GAUSS_NET_SHARD_BACKEND_H_
#define GAUSS_NET_SHARD_BACKEND_H_

#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "gausstree/mliq.h"
#include "gausstree/query_common.h"
#include "gausstree/tiq.h"
#include "net/net_error.h"
#include "service/query.h"
#include "service/query_service.h"
#include "service/service_stats.h"
#include "storage/io_stats.h"

namespace gauss {

// ============================== ShardBackend ================================
//
// The transport seam of a sharded GaussDb: everything a ShardCoordinator
// needs from one shard, abstracted so the shard may live in this process
// (InProcessBackend over a QueryService) or on another host (RpcBackend over
// the wire protocol in net/wire.h, served by net/shard_server.h /
// examples/gauss_shardd). The coordinator's merge mathematics — rebase the
// per-shard denominator intervals onto a common reference scale, sum them,
// and drive mass-proportional refinement rounds (water-filled absolute gap
// targets; see service/shard_coordinator.h) until the combined interval
// certifies the answer — is identical over both; the loopback differential
// section of tests/shard_equivalence_test.cc proves the answers
// byte-identical.
//
// Protocol, per query:
//   1. Start(traversal, query) runs the shard-local traversal (MLIQ top-k /
//      TIQ candidate discovery; under the mass-proportional policy the
//      coordinator suppresses shard-local relative refinement and plants an
//      absolute denominator gap target instead) and returns the shard's
//      partial answer: reference scale, denominator interval, items. The
//      traversal stays resumable behind the caller-chosen `traversal`
//      handle.
//   2. Refine({traversal, max_gap}...) resumes denominator refinement for a
//      *batch* of traversals. Over the wire, concurrent queries' batches
//      coalesce into one frame per shard per refinement round
//      (RefineChannel, net/rpc_backend.h).
//   3. Release(traversals) frees the shard-side traversal state once the
//      coordinator has certified (or abandoned) the query.
//
// Failure model: Start/Refine complete with a typed NetError instead of
// throwing or hanging; a coordinator maps any failure to a per-query
// QueryResponse::Status::kShardError. InProcessBackend fails only when its
// traversal reaches a damaged node page (NetErrorCode::kCorrupt).
//
// Threading: all methods are thread-safe. In-process backends run every
// step on the calling thread and return ready futures; RpcBackend's become
// ready on its reader thread. A Query passed to Start() must stay alive
// until the returned future is ready (coordinator threads gather
// immediately, so this holds by construction).
// ============================================================================

// One shard's partial answer after Start (all values in the shard traversal's
// *local* reference scale; `log_ref` is that scale, so the coordinator can
// rebase). Work counters are cumulative over the traversal so far.
struct ShardPartial {
  double log_ref = 0.0;
  uint64_t tree_size = 0;  // shard object count; 0 = empty shard, skip it
  double denominator_lo = 0.0;
  double denominator_hi = 0.0;
  bool exhausted = true;
  uint64_t nodes_visited = 0;
  uint64_t leaf_nodes_visited = 0;
  uint64_t objects_evaluated = 0;
  // MLIQ: the shard-local top-k (descending scaled density).
  // TIQ: surviving candidates in discovery order. Final after Start — later
  // refinement only tightens bounds, never changes the shard's item set.
  std::vector<ScoredObject> items;
};

// One traversal's entry in a batched refinement round.
struct RefineSpec {
  uint64_t traversal = 0;
  double max_gap = 0.0;  // target denominator gap (shard-local scale)
};

// Post-refinement state of one traversal. Counters are cumulative (same
// convention as ShardPartial), so the latest update always carries the
// traversal's total work.
struct RefineUpdate {
  double denominator_lo = 0.0;
  double denominator_hi = 0.0;
  bool exhausted = true;
  uint64_t nodes_visited = 0;
  uint64_t leaf_nodes_visited = 0;
  uint64_t objects_evaluated = 0;
};

// How many refinement rounds a backend has run (one per Refine call in
// process, one per batched flush over the wire), and how many per-traversal
// refine requests those rounds carried — requests/rounds is the batching win
// ServiceStats::refine_rounds reports.
struct BackendRefineCounters {
  uint64_t rounds = 0;
  uint64_t requests = 0;
};

// One top-level subtree of a shard's tree in the coarse denominator sketch:
// its object count and parameter-space MBR (dim() DimBounds). Leaf roots
// synthesize one entry per stored pfv with degenerate bounds.
struct ShardSketchEntry {
  uint32_t count = 0;
  std::vector<DimBounds> bounds;
};

// Query-independent coarse description of one shard's tree, fetched once per
// backend and cached by the coordinator. For any query the coordinator can
// hull-bound each entry (at the shard's own sigma policy and reference
// scale) and obtain per-shard denominator bounds one tree level tighter than
// the trivial root-level [0, n] — tight enough to water-fill mass-
// proportional refinement budgets before the first refinement round.
struct ShardSketch {
  uint64_t tree_size = 0;  // 0 = empty shard: no bounds, no entries
  SigmaPolicy sigma_policy = SigmaPolicy::kConvolution;
  std::vector<DimBounds> root_bounds;  // dim() entries; source of log_ref
  std::vector<ShardSketchEntry> entries;
};

// Builds the sketch from a tree's root node (one page load). An inner root
// yields one entry per child subtree; a leaf root yields one degenerate
// entry per pfv; an empty tree yields an empty sketch. Runs on the calling
// thread.
ShardSketch BuildShardSketch(const GaussTree& tree);

// The error a shard reports when its traversal reached a node page that
// failed validation (MliqTraversal/TiqTraversal::corrupt()).
NetError CorruptPageError();

class ShardBackend {
 public:
  struct StartResult {
    NetError error;
    ShardPartial partial;  // valid iff error.ok()
  };

  struct RefineResult {
    NetError error;
    // updates[i] answers specs[i] of the submitted batch; valid iff
    // error.ok(). A transport failure fails the whole round.
    std::vector<RefineUpdate> updates;
  };

  struct StatsResult {
    NetError error;
    IoStats io;            // the shard cache's counters
    ServiceStats service;  // remote serving counters (RPC only; else zero)
  };

  struct SketchResult {
    NetError error;
    ShardSketch sketch;  // valid iff error.ok()
  };

  virtual ~ShardBackend() = default;

  // Dimensionality of the shard's tree (known at connect/attach time).
  virtual size_t dim() const = 0;

  // Runs the shard-local traversal of `query` under the caller-chosen
  // handle. Handles must be unique per backend among live traversals.
  virtual std::future<StartResult> Start(uint64_t traversal,
                                         const Query& query) = 0;

  // Resumes denominator refinement for a batch of live traversals. Over the
  // wire, concurrent calls coalesce: all specs pending when a round begins
  // travel in one frame.
  virtual std::future<RefineResult> Refine(std::vector<RefineSpec> specs) = 0;

  // Frees shard-side traversal state. Fire-and-forget; releasing an unknown
  // or already-released handle is a no-op.
  virtual void Release(const std::vector<uint64_t>& traversals) = 0;

  // Fetches the shard's I/O counters (and, remotely, serving counters).
  virtual StatsResult FetchStats() = 0;

  // Fetches the shard's coarse denominator sketch (query-independent; the
  // coordinator fetches once and caches). Blocking, like FetchStats. A
  // failure is non-fatal to the caller: the sketch only seeds refinement
  // budgets, it never affects answers.
  virtual SketchResult FetchSketch() = 0;

  virtual BackendRefineCounters refine_counters() const = 0;
};

// ============================= InProcessBackend =============================
//
// ShardBackend over a local shard tree, and the one shard-side traversal
// table: GaussDb::Serve() wires one per shard under the coordinator, and a
// ShardServer (net/shard_server.h) holds one per connection and answers
// kStart, kRefine, kRelease, kFetchSketch and kStats through it. Run to
// completion: Start, Refine and FetchSketch run the traversal step on the
// calling thread and return ready futures, so a query's shard work hands
// nothing to another thread (morsel-driven scheduling: Leis et al., SIGMOD
// 2014). Each Refine call is one round of specs.size() requests.
//
// Handles: Start registers its traversal under the caller's handle (also
// when the traversal hit a damaged page), Release frees it, and a Refine
// naming a handle that is not registered — never started, or released —
// completes with a typed kProtocolError and no updates, before any
// refinement runs. A Release racing a Refine frees the traversal once the
// round is done; one traversal is refined by one Refine at a time. Every
// thread traverses the tree, so its PageCache must be
// thread-safe (checked at construction). The QueryService (only its tree is
// used) must outlive the backend.
// ============================================================================
class InProcessBackend : public ShardBackend {
 public:
  explicit InProcessBackend(QueryService* service);

  size_t dim() const override;
  std::future<StartResult> Start(uint64_t traversal,
                                 const Query& query) override;
  std::future<RefineResult> Refine(std::vector<RefineSpec> specs) override;
  void Release(const std::vector<uint64_t>& traversals) override;
  StatsResult FetchStats() override;
  SketchResult FetchSketch() override;
  BackendRefineCounters refine_counters() const override;

 private:
  // Exactly one of the two is set, matching the query kind. Shared, so a
  // refine round keeps its traversals alive against a racing Release.
  struct Traversal {
    std::shared_ptr<MliqTraversal> mliq;
    std::shared_ptr<TiqTraversal> tiq;
  };

  QueryService* const service_;
  mutable std::mutex mu_;
  std::unordered_map<uint64_t, Traversal> traversals_;  // guarded by mu_
  BackendRefineCounters counters_;                      // guarded by mu_
};

// =============================== DeltaBackend ===============================
//
// ShardBackend over a live-ingest DeltaTree (gausstree/delta_tree.h): the
// seam that makes the mutable delta "one more shard" to the coordinator,
// which keeps combined MLIQ/TIQ answers provably exact without teaching the
// merge math anything new. Start() runs ScanDelta on the calling
// coordinator thread — no pages, no workers — and reports a degenerate
// denominator interval (lo == hi, exhausted) in its own reference scale, so
// refinement rounds always skip it. Item filtering honors the same pruning
// floors the coordinator ships to tree shards: MLIQ keeps objects at or
// above the certified density floor (a floor tie must still surface; extra
// items are harmless, the coordinator truncates the merged list), TIQ drops
// a candidate only when its probability upper bound under the larger of the
// local denominator and the certified combined floor falls strictly below
// the threshold (conservative: no false dismissals).
//
// The backend snapshots the delta's size at Start, so a query admitted at
// epoch time t sees exactly the enrollments published before t — concurrent
// Appends land in later snapshots, never mid-query. A Refine naming a
// handle it does not hold completes with a typed kProtocolError and no
// updates, as InProcessBackend's does.
// ============================================================================
class DeltaTree;

// What one ScanDelta did: how many objects it scored exactly, and whether
// that was every object (a delta too small to bound, or a query the bound
// could not decide).
struct DeltaScanStats {
  size_t scored = 0;
  bool full = false;
};

// The delta scan of DeltaBackend::Start over the delta's first n objects (n
// at most a size() the caller observed): fills `partial` (reference scale,
// exact denominator, items, counters) bit for bit as scoring every object
// with the exact joint log density — the same batch kernel the tree
// traversals bottom out in — would. It bounds each object's joint log
// density from the delta's per-dimension sigma range in one cheap pass,
// scores exactly only the objects whose bound comes within a margin of the
// best object's density (every other one provably scales to +0 in the
// reference scale; the argument is in shard_backend.cc), and falls back to
// scoring every object when an unscored one could still reach the items:
// an MLIQ with fewer than k scored objects of positive mass at or above the
// floor, or a TIQ threshold or denominator floor that keeps zero-mass
// candidates. Allocates nothing but the item list once its per-thread
// scratch has grown to the delta's size.
DeltaScanStats ScanDelta(const DeltaTree& delta, size_t n, const Query& query,
                         SigmaPolicy policy, ShardPartial* partial);

class DeltaBackend : public ShardBackend {
 public:
  // `delta` is shared with the ingest path that appends to it; `policy`
  // must match the base trees' sigma policy or combined densities would mix
  // conventions.
  DeltaBackend(std::shared_ptr<const DeltaTree> delta, SigmaPolicy policy);

  size_t dim() const override;
  std::future<StartResult> Start(uint64_t traversal,
                                 const Query& query) override;
  std::future<RefineResult> Refine(std::vector<RefineSpec> specs) override;
  void Release(const std::vector<uint64_t>& traversals) override;
  StatsResult FetchStats() override;
  SketchResult FetchSketch() override;
  BackendRefineCounters refine_counters() const override;

 private:
  // Exact state to echo if a refine round ever reaches us (it should not:
  // exhausted traversals are skipped by every refinement policy).
  struct State {
    double denominator = 0.0;
    uint64_t objects = 0;
  };

  std::shared_ptr<const DeltaTree> delta_;
  SigmaPolicy policy_;
  mutable std::mutex mu_;
  std::unordered_map<uint64_t, State> traversals_;  // guarded by mu_
  BackendRefineCounters counters_;                  // guarded by mu_
};

}  // namespace gauss

#endif  // GAUSS_NET_SHARD_BACKEND_H_
