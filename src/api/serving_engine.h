#ifndef GAUSS_API_SERVING_ENGINE_H_
#define GAUSS_API_SERVING_ENGINE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "api/gauss_db.h"
#include "gausstree/delta_tree.h"

namespace gauss {

// Frames of each one-stripe build pool: GaussDb's and every merge's.
// A build writes its node pages straight to the device and re-reads none of
// them (GtNodeStore::Finalize), so the pool only carries header and manifest
// pages and the one-pass page walks of Open and Definalize.
inline constexpr size_t kBuildPoolPages = 64;

// One per-shard serving stack: sharded page cache + reopened tree + worker
// pool. Destruction order (reverse of declaration): service joins its
// workers first, then the tree detaches, then the cache flushes away.
struct ShardServingStack {
  std::unique_ptr<ShardedBufferPool> pool;
  std::unique_ptr<GaussTree> tree;
  std::unique_ptr<QueryService> service;
};

// ============================= ServingEngine ================================
//
// The one engine behind every Session (design notes for live ingest:
// src/gausstree/README.md). GaussDb::Serve() builds one per call for a
// static database, one per database with GaussDbOptions::ingest.enabled;
// GaussDb::ServeRemote() builds one over RpcBackends. A Session is a share
// of an engine and forwards every call to it.
//
// Epochs. Serving state is an immutable Epoch: the reopened per-shard base
// trees (one ShardServingStack each), one append-only DeltaTree per base
// shard under live ingest, and a front door. The front door is a
// ShardCoordinator exactly when the database is sharded or the epoch has
// deltas; its backend list is the base shards *plus one DeltaBackend per
// delta*. Otherwise it is the one shard's QueryService, and queries skip the
// scatter-gather entirely. Because a DeltaBackend reports exact degenerate
// denominator intervals (lo == hi, exhausted), the coordinator's combination
// and refinement mathematics treat the delta as just another
// already-converged shard — MLIQ top-k and TIQ answers over base + delta are
// provably exact, by the same argument (and differential proof) that covers
// ordinary shards. A static engine's single epoch has no deltas and is never
// replaced; a remote engine's epoch has no local stacks, only the
// RpcBackends and their coordinator.
//
// Threads. A local coordinator's threads run the shard traversals
// themselves (InProcessBackend runs on the calling thread), so they are
// sized like workers: min(serve budget, UsableCpus()). The per-shard
// QueryService pools then serve only a ShardServer wrapped around
// Session::shard_service(). A remote coordinator keeps 2 threads, which
// block on the wire.
//
// Snapshot isolation without reader latching. The current epoch is published
// as a shared_ptr; Submit()/ExecuteBatch() copy it at admission and route
// through its front door. A query admitted at time t therefore sees exactly
// the base image and the delta prefix published before t (DeltaTree grows
// append-only and its size is read once per traversal). Inserts go to the
// *current* epoch's delta under insert_mu_ — queries never block inserts and
// vice versa. A spatial database routes each insert by the paper's Section
// 5.3 rule over the shards' root MBRs, each grown by its delta; a hash image
// routes by the id hash (api/partitioner.h).
//
// Merge (live ingest only). Once the buffered delta passes
// IngestOptions::merge_threshold, or a delta rejects an insert because it is
// full (or on MergeNow()), the merge thread: (1) cuts each delta at its
// current size, (2) rebuilds each dirty shard's base through
// GaussTree::BulkLoad on fresh pages of the same device — base image + delta
// prefix, collected while the old epoch keeps serving, (3) redirects the
// shard's persistent header page to the new image (so reopen-after-restart
// sees the merged base), (4) opens a fresh epoch over the merged bases,
// re-publishing any delta tail inserted during the rebuild, and (5) retires
// the old epoch: waits until no admission still holds it, then destroys its
// coordinator (which drains in-flight queries) and folds its cache counters
// into retired_io_. Superseded base pages are not reclaimed — LSM-style
// space amplification, one image per merge.
//
// Threading: Insert/Submit/ExecuteBatch/MergeNow/stats are all thread-safe.
// Lock order: merge_mu_ -> insert_mu_ -> epoch_mu_.
// ============================================================================
class ServingEngine {
 public:
  // One base shard's persistent location: the device its pages live on and
  // the page its header occupies (what GaussTree::Open attaches to, and
  // what a merge redirects to the rebuilt image).
  struct ShardSource {
    PageDevice* device = nullptr;
    PageId meta_page = 0;
  };

  // Local engine over the finalized shard images of a GaussDb. `serve`
  // shapes each epoch's serving stacks; `sharded` puts a coordinator in
  // front of them even without deltas. With `ingest.enabled` every epoch
  // carries one delta per shard, `file_devices` are synced after every
  // merge, and MergePolicy::kBackground starts the merge thread.
  ServingEngine(std::vector<ShardSource> sources, bool sharded,
                Partitioner partitioner, size_t dim,
                GaussTreeOptions tree_options,
                std::vector<FilePageDevice*> file_devices, ServeOptions serve,
                IngestOptions ingest);

  // Remote engine over connected shard backends (ServeRemote): one epoch,
  // no local stacks, no deltas.
  ServingEngine(std::vector<std::unique_ptr<ShardBackend>> backends,
                ServeOptions serve);

  ~ServingEngine();

  ServingEngine(const ServingEngine&) = delete;
  ServingEngine& operator=(const ServingEngine&) = delete;

  // Typed routing: kRoutedToDelta on success, kDeltaFull at capacity,
  // kDimensionMismatch/kInvalidPfv on malformed input, kFinalized without
  // live ingest. Under MergePolicy::kBackground an insert that pushes the
  // buffered total past merge_threshold, or that a full delta rejects,
  // wakes the merge thread.
  InsertResult Insert(const Pfv& pfv);

  // Epoch-snapshotting admission (see class comment).
  std::future<QueryResponse> Submit(Query query);
  BatchResult ExecuteBatch(const std::vector<Query>& batch);

  // Runs one merge now, blocking until the new epoch serves. False when
  // nothing is buffered (always, without live ingest).
  bool MergeNow();

  // Zeros without live ingest.
  IngestStats stats() const;

  // Local: the current epoch's cache counters plus every retired epoch's.
  // Remote: the remote shard caches' counters, over the wire.
  IoStats io_stats() const;

  // Base + buffered delta objects (local engines).
  size_t size() const;

  // Base shards (deltas hold no pages and are not counted).
  size_t num_shards() const { return num_base_; }
  bool sharded() const { return sharded_; }
  bool live() const { return ingest_.enabled; }

  // Total per-shard QueryService workers of the current epoch (0 for
  // remote).
  size_t num_workers() const;
  // Threads of the current epoch's ShardCoordinator (0 when the front door
  // is the one QueryService).
  size_t coordinator_threads() const;

  // The serving stack of `shard`: local engines without live ingest only
  // (a live epoch's stacks retire on merge; remote shards have none here).
  const GaussTree& shard_tree(size_t shard) const;
  QueryService* shard_service(size_t shard) const;
  // Unsharded local engines without live ingest only.
  const GaussTree& tree() const;
  ShardedBufferPool& cache() const;

 private:
  // One immutable serving generation. Destruction order (reverse of
  // declaration): the coordinator drains its in-flight scatter-gathers
  // first, then the backends close, then the deltas go, then each serving
  // stack tears down service -> tree -> cache.
  struct Epoch {
    uint64_t id = 1;
    size_t base_objects = 0;
    std::vector<ShardServingStack> stacks;  // empty for remote engines
    std::vector<std::shared_ptr<DeltaTree>> deltas;  // live ingest only
    std::vector<std::unique_ptr<ShardBackend>> backends;
    std::unique_ptr<ShardCoordinator> coordinator;  // null: direct front door
    // Live ingest on a spatial database of > 1 shard: each shard's root
    // entry grown by its delta, what deltas are routed against. Guarded by
    // the engine's insert_mu_ (only inserts and the merge's re-publication
    // read or grow it).
    std::vector<GtChildEntry> routes;

    // Grows shard's route by an object appended to its delta: the shard now
    // spans base + delta, so later objects route against the MBR a merge
    // would give its rebuilt root. No-op without routes.
    void GrowRoute(size_t shard, const Pfv& pfv) {
      if (routes.empty()) return;
      routes[shard].Include(pfv);
      ++routes[shard].count;
    }
  };

  std::shared_ptr<Epoch> Current() const;

  // Routes `pfv` to a shard (api/partitioner.h) and appends it to that
  // shard's delta; false when the delta is full. Caller holds insert_mu_.
  bool AppendToDelta(Epoch* epoch, const Pfv& pfv) const;

  // Opens serving stacks over sources_, fresh deltas under live ingest, and
  // — when sharded or live — base + delta backends behind a coordinator.
  std::shared_ptr<Epoch> BuildLocalEpoch(uint64_t id);
  // Puts a coordinator in front of epoch->backends.
  void AttachCoordinator(Epoch* epoch) const;
  // shard's stack, checked to be a static local one.
  const ShardServingStack& StaticStack(size_t shard) const;

  void RetireEpoch(std::shared_ptr<Epoch> old);
  void RequestMerge();
  void MergeLoop();

  const size_t dim_;
  const size_t num_base_;
  const bool sharded_;
  const Partitioner partitioner_;
  const GaussTreeOptions tree_options_;
  const std::vector<ShardSource> sources_;          // local only
  const std::vector<FilePageDevice*> file_devices_; // local only
  const ServeOptions serve_;
  const IngestOptions ingest_;

  mutable std::mutex epoch_mu_;
  std::shared_ptr<Epoch> epoch_;  // guarded by epoch_mu_; readers copy

  // Serializes inserts (delta routing + the merge's tail re-publication).
  std::mutex insert_mu_;
  // Serializes merges (the background thread and MergeNow callers).
  std::mutex merge_mu_;

  mutable std::mutex stats_mu_;
  IoStats retired_io_;  // guarded by stats_mu_

  std::atomic<uint64_t> inserts_accepted_{0};
  std::atomic<uint64_t> merges_completed_{0};

  std::mutex wake_mu_;
  std::condition_variable wake_cv_;
  bool stop_ = false;             // guarded by wake_mu_
  bool merge_requested_ = false;  // guarded by wake_mu_
  std::thread merge_thread_;      // live ingest + kBackground only
};

}  // namespace gauss

#endif  // GAUSS_API_SERVING_ENGINE_H_
