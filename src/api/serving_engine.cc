#include "api/serving_engine.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <deque>
#include <string>
#include <utility>

#include "common/cpus.h"
#include "common/macros.h"

namespace gauss {

namespace {

// Per-shard share of a ServeOptions cache budget: split evenly over the
// shards with a floor of 16 pages, enough for a root-to-leaf path plus
// headers. Every epoch builds its stacks from this one split, so enabling
// ingest changes *what* is served (base + delta), never *how* the base is
// cached.
size_t SplitServeBudget(const ServeOptions& options, size_t shards) {
  return std::max<size_t>(16, options.cache_pages / shards);
}

// The leaves of a finalized tree, breadth first, each viewed in place and
// pinned in the tree's cache until the view is dropped. An inner node's pin
// is dropped once its children are queued. Aborts on a damaged page.
std::vector<GtNodeSoa> PinLeaves(const GaussTree& tree) {
  std::vector<GtNodeSoa> leaves;
  std::deque<PageId> queue{tree.root()};
  while (!queue.empty()) {
    const PageId id = queue.front();
    queue.pop_front();
    GtNodeSoa view;
    const char* why = nullptr;
    const bool loaded = tree.store().LoadSoa(id, &view, &why);
    GAUSS_CHECK_MSG(loaded, why);
    if (view.leaf()) {
      leaves.push_back(std::move(view));
    } else {
      queue.insert(queue.end(), view.children, view.children + view.n);
    }
  }
  return leaves;
}

}  // namespace

std::vector<std::vector<PageId>> RebuildShards(
    const std::vector<ShardRebuild>& rebuilds, size_t threads) {
  // Per rebuild: the new image's header page, then the pages that no header
  // reaches once the commit is done.
  std::vector<PageId> merged_meta(rebuilds.size(), kInvalidPageId);
  std::vector<std::vector<PageId>> retired(rebuilds.size());
  std::vector<PageDevice*> devices;
  for (size_t r = 0; r < rebuilds.size(); ++r) {
    const ShardRebuild& rebuild = rebuilds[r];
    // One run per leaf page of the base, pinned until the load ends, then
    // the added runs.
    const std::vector<GtNodeSoa> leaves = PinLeaves(*rebuild.base);
    std::vector<GaussTree::SoaRun> runs;
    runs.reserve(leaves.size() + rebuild.added.size());
    for (const GtNodeSoa& leaf : leaves) {
      runs.push_back({leaf.ids, leaf.planes, leaf.stride, leaf.n});
    }
    runs.insert(runs.end(), rebuild.added.begin(), rebuild.added.end());
    ShardedBufferPool pool(rebuild.device, kBuildPoolPages, /*num_shards=*/1);
    GaussTree tree(&pool, rebuild.base->dim(), rebuild.base->options());
    tree.BulkLoad(runs, threads);
    tree.Finalize();
    merged_meta[r] = tree.meta_page();
    retired[r] = rebuild.base->store().pages();
    retired[r].push_back(tree.meta_page());  // copied below, then dead
    if (std::find(devices.begin(), devices.end(), rebuild.device) ==
        devices.end()) {
      devices.push_back(rebuild.device);
    }
  }
  for (PageDevice* device : devices) device->Sync();
  for (size_t r = 0; r < rebuilds.size(); ++r) {
    // Copy the new header onto the shard's header page, so whatever opens
    // that page next — a fresh epoch, a reopen after a restart — attaches
    // to the new image. The base read that page once, at Open(), and never
    // again.
    PageDevice* device = rebuilds[r].device;
    std::vector<uint8_t> page(device->page_size());
    device->Read(merged_meta[r], page.data());
    device->Write(rebuilds[r].meta_page, page.data());
  }
  // The redirect is durable before the caller recycles the pages the old
  // header named.
  for (PageDevice* device : devices) device->Sync();
  return retired;
}

void RecycleUnreachable(PageDevice* device,
                        const std::vector<PageId>& reached) {
  std::vector<bool> keep(device->PageCount(), false);
  keep[0] = true;  // a tree header or the shard manifest
  for (PageId id : reached) keep[id] = true;
  std::vector<PageId> dead;
  for (PageId id = 0; id < keep.size(); ++id) {
    if (!keep[id] && !device->IsFree(id)) dead.push_back(id);
  }
  device->Recycle(dead);
}

ServingEngine::ServingEngine(std::vector<ShardSource> sources, bool sharded,
                             size_t dim, GaussTreeOptions tree_options,
                             ServeOptions serve, IngestOptions ingest)
    : dim_(dim),
      num_base_(sources.size()),
      sharded_(sharded),
      tree_options_(tree_options),
      sources_(std::move(sources)),
      serve_(serve),
      ingest_(ingest) {
  GAUSS_CHECK_MSG(!sources_.empty(), "serving needs >= 1 shard source");
  GAUSS_CHECK_MSG(!ingest_.enabled || ingest_.delta_capacity > 0,
                  "IngestOptions::delta_capacity must be >= 1");
  for (const ShardSource& source : sources_) {
    if (std::find(devices_.begin(), devices_.end(), source.device) ==
        devices_.end()) {
      devices_.push_back(source.device);
    }
  }
  epoch_ = BuildLocalEpoch(1);
  if (!ingest_.enabled) return;
  // Opening the epoch walked every page a header reaches; the rest is dead.
  RecycleUnreachable(*epoch_);
  if (ingest_.merge_policy == MergePolicy::kBackground) {
    merge_thread_ = std::thread([this] { MergeLoop(); });
  }
}

ServingEngine::ServingEngine(
    std::vector<std::unique_ptr<ShardBackend>> backends, ServeOptions serve)
    : dim_(backends.empty() ? 0 : backends.front()->dim()),
      num_base_(backends.size()),
      sharded_(true),
      serve_(serve) {
  auto epoch = std::make_shared<Epoch>();
  epoch->backends = std::move(backends);
  AttachCoordinator(epoch.get());
  epoch_ = std::move(epoch);
}

ServingEngine::~ServingEngine() {
  if (merge_thread_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(wake_mu_);
      stop_ = true;
    }
    wake_cv_.notify_all();
    merge_thread_.join();
  }
  // epoch_ destruction drains the front door before the stacks tear down.
}

std::shared_ptr<ServingEngine::Epoch> ServingEngine::Current() const {
  std::lock_guard<std::mutex> lock(epoch_mu_);
  return epoch_;
}

std::shared_ptr<ServingEngine::Epoch> ServingEngine::BuildLocalEpoch(
    uint64_t id) {
  const size_t shards = sources_.size();
  const size_t pages_per_shard = SplitServeBudget(serve_, shards);

  auto epoch = std::make_shared<Epoch>();
  epoch->id = id;
  epoch->stacks.reserve(shards);
  for (size_t s = 0; s < shards; ++s) {
    ShardServingStack stack;
    // Directory layout: each shard's serving cache sits on the shard's own
    // device, so its misses never queue behind another shard's reads.
    stack.pool = std::make_unique<ShardedBufferPool>(sources_[s].device,
                                                     pages_per_shard);
    stack.tree = GaussTree::Open(stack.pool.get(), sources_[s].meta_page);
    epoch->base_objects += stack.tree->size();
    if (ingest_.enabled && shards > 1) {
      epoch->routes.push_back(stack.tree->RootEntry());
    }
    epoch->stacks.push_back(std::move(stack));
    if (ingest_.enabled) {
      epoch->deltas.push_back(
          std::make_shared<DeltaTree>(dim_, ingest_.delta_capacity));
    }
  }
  if (!sharded_ && epoch->deltas.empty()) {
    // The direct front door: one pool of workers over the one tree.
    epoch->service = std::make_unique<QueryService>(
        *epoch->stacks[0].tree,
        QueryServiceOptions{.num_workers = serve_.num_workers,
                            .queue_capacity = serve_.queue_capacity});
    return epoch;
  }

  // Backend list: the base shards first, then their deltas. The coordinator
  // treats every entry uniformly; a delta's exact degenerate interval means
  // it is never asked to refine.
  epoch->backends.reserve(shards + epoch->deltas.size());
  for (const ShardServingStack& stack : epoch->stacks) {
    epoch->backends.push_back(std::make_unique<InProcessBackend>(*stack.tree));
  }
  for (const auto& delta : epoch->deltas) {
    epoch->backends.push_back(
        std::make_unique<DeltaBackend>(delta, tree_options_.sigma_policy));
  }
  AttachCoordinator(epoch.get());
  return epoch;
}

void ServingEngine::AttachCoordinator(Epoch* epoch) const {
  std::vector<ShardBackend*> backend_ptrs;
  backend_ptrs.reserve(epoch->backends.size());
  for (const auto& backend : epoch->backends) {
    backend_ptrs.push_back(backend.get());
  }
  ShardCoordinatorOptions coordinator_options;
  coordinator_options.queue_capacity = serve_.queue_capacity;
  // Local threads run the traversals (see "Threads" in the class comment);
  // more of them than CPUs only lengthens the tail. A budget of 0 reads as
  // UsableCpus().
  if (!epoch->stacks.empty()) {
    const size_t cpus = UsableCpus();
    coordinator_options.num_threads =
        serve_.num_workers != 0 ? std::min(serve_.num_workers, cpus) : cpus;
  }
  epoch->coordinator = std::make_unique<ShardCoordinator>(
      std::move(backend_ptrs), coordinator_options);
}

InsertResult ServingEngine::Insert(const Pfv& pfv) {
  if (!ingest_.enabled) {
    return {InsertOutcome::kFinalized,
            "static session: the serving pages are immutable (enable "
            "GaussDbOptions::ingest for live ingest)"};
  }
  if (pfv.dim() != dim_) {
    return {InsertOutcome::kDimensionMismatch,
            "pfv dimensionality " + std::to_string(pfv.dim()) +
                " != database dimensionality " + std::to_string(dim_)};
  }
  if (!pfv.Valid()) {
    return {InsertOutcome::kInvalidPfv,
            "invalid pfv: mu/sigma lengths differ or sigma <= 0"};
  }

  const bool background = ingest_.merge_policy == MergePolicy::kBackground;
  bool accepted = false;
  bool merge_due = false;
  {
    std::lock_guard<std::mutex> lock(insert_mu_);
    std::shared_ptr<Epoch> epoch = Current();
    accepted = AppendToDelta(epoch.get(), pfv);
    if (accepted) {
      inserts_accepted_.fetch_add(1, std::memory_order_relaxed);
      size_t buffered = 0;
      for (const auto& delta : epoch->deltas) buffered += delta->size();
      merge_due = background && buffered >= ingest_.merge_threshold;
    } else {
      // A full delta below the threshold would otherwise wait forever: only
      // a merge can drain it.
      merge_due = background;
    }
  }
  if (merge_due) RequestMerge();
  if (!accepted) {
    return {InsertOutcome::kDeltaFull,
            "delta at capacity; retry once the merge catches up"};
  }
  return {InsertOutcome::kRoutedToDelta, std::string()};
}

bool ServingEngine::AppendToDelta(Epoch* epoch, const Pfv& pfv) const {
  const size_t shard =
      epoch->routes.empty() ? 0 : ChooseSubtree(epoch->routes, pfv,
                                                tree_options_);
  if (!epoch->deltas[shard]->Append(pfv)) return false;
  epoch->GrowRoute(shard, pfv);
  return true;
}

std::future<QueryResponse> ServingEngine::Submit(Query query) {
  // The epoch copy pins the serving generation for the admission itself;
  // once the front door has the query, epoch retirement waits on the
  // coordinator's own drain.
  std::shared_ptr<Epoch> epoch = Current();
  return epoch->coordinator ? epoch->coordinator->Submit(std::move(query))
                            : epoch->service->Submit(std::move(query));
}

BatchResult ServingEngine::ExecuteBatch(const std::vector<Query>& batch) {
  std::shared_ptr<Epoch> epoch = Current();
  return epoch->coordinator ? epoch->coordinator->ExecuteBatch(batch)
                            : epoch->service->ExecuteBatch(batch);
}

bool ServingEngine::MergeNow() {
  std::lock_guard<std::mutex> merge_lock(merge_mu_);
  std::shared_ptr<Epoch> old = Current();

  // Cut each delta at its current size: [0, cut) merges into the base,
  // anything appended later re-publishes into the fresh epoch's delta.
  std::vector<size_t> cuts(old->deltas.size(), 0);
  size_t total = 0;
  for (size_t s = 0; s < old->deltas.size(); ++s) {
    cuts[s] = old->deltas[s]->size();
    total += cuts[s];
  }
  if (total == 0) return false;

  // Rebuild each shard with a cut on pages the old epoch never reads, from
  // its base image, read through the *old* epoch's cache — it keeps serving
  // queries throughout — and the delta prefix. One thread: a background
  // rebuild never takes CPUs from the serving workers.
  std::vector<ShardRebuild> rebuilds;
  for (size_t s = 0; s < sources_.size(); ++s) {
    if (cuts[s] == 0) continue;
    const DeltaTree& delta = *old->deltas[s];
    rebuilds.push_back(
        {old->stacks[s].tree.get(), sources_[s].device, sources_[s].meta_page,
         {{delta.ids(), delta.mu_planes(), delta.plane_stride(), cuts[s]}}});
  }
  const std::vector<std::vector<PageId>> retired =
      RebuildShards(rebuilds, /*threads=*/1);

  std::shared_ptr<Epoch> fresh = BuildLocalEpoch(old->id + 1);
  {
    // Republish the delta tails and swap. Holding insert_mu_ makes the cut
    // exact: no insert can land between the tail copy and the epoch swap.
    std::lock_guard<std::mutex> insert_lock(insert_mu_);
    for (size_t s = 0; s < old->deltas.size(); ++s) {
      const size_t now = old->deltas[s]->size();
      for (size_t i = cuts[s]; i < now; ++i) {
        const Pfv pfv = old->deltas[s]->Object(i);
        GAUSS_CHECK(fresh->deltas[s]->Append(pfv));
        fresh->GrowRoute(s, pfv);
      }
    }
    std::lock_guard<std::mutex> epoch_lock(epoch_mu_);
    epoch_ = fresh;
  }
  RetireEpoch(std::move(old));
  // The old epoch and every cache over its pages are gone: nothing reads
  // the retired pages any more.
  for (size_t r = 0; r < rebuilds.size(); ++r) {
    rebuilds[r].device->Recycle(retired[r]);
  }
  merges_completed_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void ServingEngine::RecycleUnreachable(const Epoch& epoch) {
  for (PageDevice* device : devices_) {
    std::vector<PageId> reached;
    for (size_t s = 0; s < sources_.size(); ++s) {
      if (sources_[s].device != device) continue;
      reached.push_back(sources_[s].meta_page);
      const std::vector<PageId>& pages = epoch.stacks[s].tree->store().pages();
      reached.insert(reached.end(), pages.begin(), pages.end());
    }
    gauss::RecycleUnreachable(device, reached);
  }
}

void ServingEngine::RetireEpoch(std::shared_ptr<Epoch> old) {
  // Wait until no admission path still holds the epoch (Submit/ExecuteBatch
  // copies are short-lived), then drain: destroying the coordinator blocks
  // until every in-flight scatter-gather over the old generation completes.
  while (old.use_count() > 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // use_count() is a relaxed read, so seeing 1 does not yet order this
  // thread after what the last admissions did with the epoch (ExecuteBatch
  // reads the coordinator's backends after its last query returns).
  // Dropping a copy does: the count's decrement is an acquire-release update
  // that reads from every earlier snapshot's release.
  { std::shared_ptr<Epoch> synchronize = old; }
  old->coordinator.reset();
  old->backends.clear();
  IoStats retired;
  for (const ShardServingStack& stack : old->stacks) {
    retired += stack.pool->stats();
  }
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    retired_io_ += retired;
  }
}

void ServingEngine::RequestMerge() {
  {
    std::lock_guard<std::mutex> lock(wake_mu_);
    merge_requested_ = true;
  }
  wake_cv_.notify_all();
}

void ServingEngine::MergeLoop() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(wake_mu_);
      wake_cv_.wait(lock, [this] { return stop_ || merge_requested_; });
      if (stop_) return;
      merge_requested_ = false;
    }
    MergeNow();
  }
}

IngestStats ServingEngine::stats() const {
  if (!ingest_.enabled) return IngestStats{};
  std::shared_ptr<Epoch> epoch = Current();
  IngestStats out;
  for (const auto& delta : epoch->deltas) out.delta_size += delta->size();
  for (const PageDevice* device : devices_) {
    out.device_pages += device->PageCount();
    out.free_pages += device->FreePageCount();
  }
  out.epoch = epoch->id;
  out.inserts_accepted = inserts_accepted_.load(std::memory_order_relaxed);
  out.merges_completed = merges_completed_.load(std::memory_order_relaxed);
  if (ingest_.merge_policy == MergePolicy::kManual) {
    out.merge_backlog = out.delta_size;
  } else {
    out.merge_backlog =
        out.delta_size >= ingest_.merge_threshold ? out.delta_size : 0;
  }
  return out;
}

IoStats ServingEngine::io_stats() const {
  std::shared_ptr<Epoch> epoch = Current();
  // Remote shards keep their caches on their own hosts.
  if (epoch->stacks.empty()) return epoch->coordinator->io_stats();
  IoStats total;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    total = retired_io_;
  }
  for (const ShardServingStack& stack : epoch->stacks) {
    total += stack.pool->stats();
  }
  return total;
}

size_t ServingEngine::size() const {
  std::shared_ptr<Epoch> epoch = Current();
  size_t total = epoch->base_objects;
  for (const auto& delta : epoch->deltas) total += delta->size();
  return total;
}

size_t ServingEngine::num_workers() const {
  std::shared_ptr<Epoch> epoch = Current();
  return epoch->coordinator ? epoch->coordinator->num_threads()
                            : epoch->service->num_workers();
}

const ShardServingStack& ServingEngine::StaticStack(size_t shard) const {
  GAUSS_CHECK_MSG(!ingest_.enabled,
                  "live-ingest session: serving stacks are epoch-owned");
  // A static engine never replaces its epoch, so the stack outlives the
  // snapshot taken here.
  std::shared_ptr<Epoch> epoch = Current();
  GAUSS_CHECK_MSG(!epoch->stacks.empty(),
                  "remote session: the shards are served by other hosts");
  return epoch->stacks.at(shard);
}

const GaussTree& ServingEngine::shard_tree(size_t shard) const {
  return *StaticStack(shard).tree;
}

const GaussTree& ServingEngine::tree() const {
  GAUSS_CHECK_MSG(!sharded_, "sharded session: use shard_tree(shard)");
  return shard_tree(0);
}

ShardedBufferPool& ServingEngine::cache() const {
  GAUSS_CHECK_MSG(!sharded_,
                  "sharded session: per-shard caches; use io_stats()");
  return *StaticStack(0).pool;
}

}  // namespace gauss
