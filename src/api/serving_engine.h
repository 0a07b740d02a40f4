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

// Frames of each one-stripe build pool: GaussDb's and every rebuild's.
// A build writes its node pages straight to the device and re-reads none of
// them, so the pool carries header and manifest pages and, over a GaussDb's
// built trees, the leaves a rebuild reads in place (Open's walk reads the
// device itself).
inline constexpr size_t kBuildPoolPages = 64;

// One shard to rebuild: its base tree, read in place through the base's own
// cache, and the objects to add to it.
struct ShardRebuild {
  const GaussTree* base = nullptr;
  PageDevice* device = nullptr;        // base's device; the new image's too
  PageId meta_page = kInvalidPageId;   // the shard's header page
  std::vector<GaussTree::SoaRun> added;
};

// The rebuild a live-ingest merge (ServingEngine::MergeNow) and a
// build-phase Finalize() of a built database (GaussDb::Finalize) share.
// Each shard's objects — its base's leaves, pinned in the base's cache until
// its load ends, then `added` — are bulk-loaded on `threads` threads into a
// new image on pages of the device that the base does not use: recycled
// ones first, then appended ones. The base stays intact and readable
// throughout. Then the commit, in write-ahead order: the devices are
// synced, each shard's header page is overwritten with its new image's
// header, and the devices are synced again, so a header never reaches the
// disk before the nodes it points at. Returns, per rebuild, the pages no
// header reaches any more: the base's nodes and the new image's own header
// page. The caller recycles them (PageDevice::Recycle) once nothing reads
// the base and no cache holds a frame of them.
std::vector<std::vector<PageId>> RebuildShards(
    const std::vector<ShardRebuild>& rebuilds, size_t threads);

// Recycles every page of `device` that is not free already and that no
// header reaches: all but page 0 (a tree header or the shard manifest) and
// the pages in `reached` (shard header pages and the node pages their trees
// reach). A live engine runs it over the image it opens; a build-phase
// rebuild runs it before it writes, so the images an earlier process
// retired are overwritten rather than appended to.
void RecycleUnreachable(PageDevice* device,
                        const std::vector<PageId>& reached);

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
// vice versa. A sharded database routes each insert by the paper's Section
// 5.3 rule over the shards' root MBRs, each grown by its delta
// (api/partitioner.h).
//
// Merge (live ingest only). Once the buffered delta passes
// IngestOptions::merge_threshold, or a delta rejects an insert because it is
// full (or on MergeNow()), the merge thread: (1) cuts each delta at its
// current size, (2) rebuilds each dirty shard's base through
// GaussTree::BulkLoad on pages of the same device that the old epoch does
// not read — recycled ones first, then appended ones — from base image +
// delta prefix, both read in place (the old image's leaf pages pinned in
// the old epoch's cache, which keeps serving), (3) commits:
// syncs the devices, redirects each rebuilt shard's persistent header page
// to its new image (so reopen-after-restart sees the merged base), and
// syncs again — a header never reaches the disk before the nodes it points
// at (steps 2 and 3 are RebuildShards), (4) opens a fresh epoch over the
// merged bases, re-publishing any delta
// tail inserted during the rebuild (GaussTree::Open checks the new image
// on the device, so the fresh caches start empty), (5) retires the old
// epoch: waits until no admission still holds it, then destroys it — its
// coordinator drains in-flight queries, its caches go, their memory with
// them — and folds its cache counters into retired_io_, and (6) recycles
// the retired images' node pages and the merge trees' own header pages
// (PageDevice::Recycle). Nothing can read those pages any more, so the next
// merge writes its image there: a device holds at most two images of each
// shard, the serving one and the one a merge is writing.
//
// Free pages are not persisted. A live engine derives them when it starts:
// every page of a device that no shard header reaches (dead images left
// before a restart, a half-written image of a merge a crash cut short) is
// recycled, page 0 and the header pages excepted.
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
  // carries one delta per shard, the pages no shard header reaches are
  // recycled, and MergePolicy::kBackground starts the merge thread.
  ServingEngine(std::vector<ShardSource> sources, bool sharded, size_t dim,
                GaussTreeOptions tree_options, ServeOptions serve,
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
    // Live ingest over > 1 shard: each shard's root entry grown by its
    // delta, what deltas are routed against (empty: every object goes to
    // shard 0). Guarded by the engine's insert_mu_ (only inserts and the
    // merge's re-publication read or grow it).
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

  // RecycleUnreachable over each of devices_, keeping the pages `epoch`'s
  // shard headers and trees reach.
  void RecycleUnreachable(const Epoch& epoch);

  void RetireEpoch(std::shared_ptr<Epoch> old);
  void RequestMerge();
  void MergeLoop();

  const size_t dim_;
  const size_t num_base_;
  const bool sharded_;
  const GaussTreeOptions tree_options_;
  const std::vector<ShardSource> sources_;  // local only
  std::vector<PageDevice*> devices_;         // sources_'s distinct devices
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
