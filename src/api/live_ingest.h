#ifndef GAUSS_API_LIVE_INGEST_H_
#define GAUSS_API_LIVE_INGEST_H_

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

// Per-shard share of a ServeOptions budget: the worker pool split evenly
// over the shards (at least one each; num_workers == 0 means UsableCpus()),
// and the cache split the same way with a floor of 16 pages, enough for a
// root-to-leaf path plus headers. GaussDb::Serve() and every live-ingest
// epoch build their stacks from this one split, so enabling ingest changes
// *what* is served (base + delta), never *how* the base is served.
struct ServeSplit {
  size_t workers_per_shard = 1;
  size_t pages_per_shard = 16;
};
ServeSplit SplitServeBudget(const ServeOptions& options, size_t shards);

// ============================== LiveIngest ==================================
//
// The insert-while-serving engine behind GaussDb::Serve() with
// GaussDbOptions::ingest.enabled (design notes: src/gausstree/README.md).
//
// Epochs. Serving state is an immutable Epoch: the reopened per-shard base
// trees (exactly the static Serve() stacks), one append-only DeltaTree per
// base shard, and a ShardCoordinator whose backend list is the base shards
// *plus one DeltaBackend per delta*. Because a DeltaBackend reports exact
// degenerate denominator intervals (lo == hi, exhausted), the coordinator's
// combination and refinement mathematics treat the delta as just another
// already-converged shard — MLIQ top-k and TIQ answers over base + delta are
// provably exact, by the same argument (and differential proof) that covers
// ordinary shards.
//
// Snapshot isolation without reader latching. The current epoch is published
// as a shared_ptr; Submit()/ExecuteBatch() copy it at admission and route
// through its coordinator. A query admitted at time t therefore sees exactly
// the base image and the delta prefix published before t (DeltaTree grows
// append-only and its size is read once per traversal). Inserts go to the
// *current* epoch's delta under insert_mu_ — queries never block inserts and
// vice versa.
//
// Merge. Once the buffered delta passes IngestOptions::merge_threshold (or on
// MergeNow()), the merge thread: (1) cuts each delta at its current size,
// (2) rebuilds each dirty shard's base through GaussTree::BulkLoad on fresh
// pages of the same device — base image + delta prefix, collected while the
// old epoch keeps serving, (3) redirects the shard's persistent header page
// to the new image (so reopen-after-restart sees the merged base), (4) opens
// a fresh epoch over the merged bases, re-publishing any delta tail inserted
// during the rebuild, and (5) retires the old epoch: waits until no admission
// still holds it, then destroys its coordinator (which drains in-flight
// queries) and folds its cache counters into retired_io_. Superseded base
// pages are not reclaimed — LSM-style space amplification, one image per
// merge.
//
// Remote front doors (GaussDb::ServeRemote + ingest): same engine over
// RpcBackends, with a single coordinator-side delta and *no merge* (the
// remote shard images are immutable from here); a full delta reports
// kDeltaFull until the operator rebuilds the remote shards.
//
// Threading: Insert/Submit/ExecuteBatch/MergeNow/stats are all thread-safe.
// Lock order: merge_mu_ -> insert_mu_ -> epoch_mu_.
// ============================================================================
class LiveIngest {
 public:
  // One base shard's persistent location: the device its pages live on and
  // the page its header occupies (what GaussTree::Open attaches to, and
  // what a merge redirects to the rebuilt image).
  struct ShardSource {
    PageDevice* device = nullptr;
    PageId meta_page = 0;
  };

  // Local engine over the finalized shard images of a GaussDb. `serve`
  // shapes each epoch's serving stacks exactly like a static Serve() call;
  // `file_devices` are synced after every merge. Starts the merge thread
  // under MergePolicy::kBackground.
  LiveIngest(std::vector<ShardSource> sources, Partitioner partitioner,
             size_t dim, GaussTreeOptions tree_options,
             size_t build_cache_pages,
             std::vector<FilePageDevice*> file_devices, ServeOptions serve,
             IngestOptions ingest);

  // Remote engine over connected shard backends (ServeRemote). `policy` is
  // the shards' sigma policy (from their sketches) so delta densities are
  // evaluated on the same scale. No merge thread.
  LiveIngest(std::vector<std::unique_ptr<ShardBackend>> base_backends,
             size_t dim, SigmaPolicy policy, ServeOptions serve,
             IngestOptions ingest);

  ~LiveIngest();

  LiveIngest(const LiveIngest&) = delete;
  LiveIngest& operator=(const LiveIngest&) = delete;

  // Typed routing: kRoutedToDelta on success, kDeltaFull at capacity,
  // kDimensionMismatch/kInvalidPfv on malformed input. Under
  // MergePolicy::kBackground a successful insert that pushes the buffered
  // total past merge_threshold wakes the merge thread.
  InsertResult Insert(const Pfv& pfv);

  // Epoch-snapshotting admission (see class comment).
  std::future<QueryResponse> Submit(Query query);
  BatchResult ExecuteBatch(const std::vector<Query>& batch);

  // Runs one merge now, blocking until the new epoch serves. False when
  // there was nothing buffered or this is a remote engine.
  bool MergeNow();

  IngestStats stats() const;

  // Current epoch's cache counters plus every retired epoch's (local);
  // remote shard counters over the wire (remote).
  IoStats io_stats() const;

  // Base + buffered delta objects.
  size_t size() const;

  size_t num_shards() const { return num_base_; }
  bool sharded() const { return num_base_ > 1; }
  bool remote() const { return remote_; }
  size_t dim() const { return dim_; }

  // Total query-execution workers of the current epoch (0 for remote).
  size_t num_workers() const;

 private:
  // One immutable serving generation. Destruction order (reverse of
  // declaration): the coordinator drains its in-flight scatter-gathers
  // first, then the backends close, then the serving stacks tear down.
  struct Epoch {
    uint64_t id = 1;
    size_t base_objects = 0;
    std::vector<ShardServingStack> stacks;  // empty for remote engines
    std::vector<std::shared_ptr<DeltaTree>> deltas;
    std::vector<std::unique_ptr<ShardBackend>> backends;
    std::unique_ptr<ShardCoordinator> coordinator;
  };

  std::shared_ptr<Epoch> Current() const;

  // Opens serving stacks over sources_ (the static Serve() arithmetic),
  // fresh deltas, base + delta backends, and a coordinator.
  std::shared_ptr<Epoch> BuildLocalEpoch(uint64_t id);

  bool MergeOnce();
  void RetireEpoch(std::shared_ptr<Epoch> old);
  void RequestMerge();
  void MergeLoop();

  const bool remote_;
  const size_t dim_;
  const size_t num_base_;
  const Partitioner partitioner_;
  const GaussTreeOptions tree_options_;
  const SigmaPolicy policy_;
  const size_t build_cache_pages_;
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
  std::thread merge_thread_;      // local + kBackground only
};

}  // namespace gauss

#endif  // GAUSS_API_LIVE_INGEST_H_
