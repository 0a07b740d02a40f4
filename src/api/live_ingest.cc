#include "api/live_ingest.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>

#include "common/cpus.h"
#include "common/macros.h"

namespace gauss {

ServeSplit SplitServeBudget(const ServeOptions& options, size_t shards) {
  const size_t total_workers =
      options.num_workers != 0 ? options.num_workers : UsableCpus();
  ServeSplit split;
  split.workers_per_shard = std::max<size_t>(1, total_workers / shards);
  split.pages_per_shard = std::max<size_t>(16, options.cache_pages / shards);
  return split;
}

LiveIngest::LiveIngest(std::vector<ShardSource> sources,
                       Partitioner partitioner, size_t dim,
                       GaussTreeOptions tree_options, size_t build_cache_pages,
                       std::vector<FilePageDevice*> file_devices,
                       ServeOptions serve, IngestOptions ingest)
    : remote_(false),
      dim_(dim),
      num_base_(sources.size()),
      partitioner_(partitioner),
      tree_options_(tree_options),
      policy_(tree_options.sigma_policy),
      build_cache_pages_(build_cache_pages),
      sources_(std::move(sources)),
      file_devices_(std::move(file_devices)),
      serve_(serve),
      ingest_(ingest) {
  GAUSS_CHECK_MSG(!sources_.empty(), "live ingest needs >= 1 shard source");
  GAUSS_CHECK_MSG(ingest_.delta_capacity > 0,
                  "IngestOptions::delta_capacity must be >= 1");
  epoch_ = BuildLocalEpoch(1);
  if (ingest_.merge_policy == MergePolicy::kBackground) {
    merge_thread_ = std::thread([this] { MergeLoop(); });
  }
}

LiveIngest::LiveIngest(std::vector<std::unique_ptr<ShardBackend>> backends,
                       size_t dim, SigmaPolicy policy, ServeOptions serve,
                       IngestOptions ingest)
    : remote_(true),
      dim_(dim),
      num_base_(backends.size()),
      partitioner_(1),
      tree_options_(),
      policy_(policy),
      build_cache_pages_(0),
      serve_(serve),
      ingest_(ingest) {
  GAUSS_CHECK_MSG(!backends.empty(), "live ingest needs >= 1 shard backend");
  GAUSS_CHECK_MSG(ingest_.delta_capacity > 0,
                  "IngestOptions::delta_capacity must be >= 1");
  auto epoch = std::make_shared<Epoch>();
  epoch->id = 1;
  for (const auto& backend : backends) {
    epoch->base_objects += backend->FetchSketch().sketch.tree_size;
  }
  // One coordinator-side delta: remote enrollments cannot be merged into the
  // remote shard images, so hash-routing them would buy nothing.
  epoch->deltas.push_back(
      std::make_shared<DeltaTree>(dim_, ingest_.delta_capacity));
  epoch->backends = std::move(backends);
  epoch->backends.push_back(
      std::make_unique<DeltaBackend>(epoch->deltas[0], policy_));
  std::vector<ShardBackend*> backend_ptrs;
  backend_ptrs.reserve(epoch->backends.size());
  for (const auto& backend : epoch->backends) {
    backend_ptrs.push_back(backend.get());
  }
  ShardCoordinatorOptions coordinator_options;
  coordinator_options.num_threads = serve_.coordinator_threads;
  coordinator_options.queue_capacity = serve_.queue_capacity;
  epoch->coordinator = std::make_unique<ShardCoordinator>(
      std::move(backend_ptrs), coordinator_options);
  epoch_ = std::move(epoch);
}

LiveIngest::~LiveIngest() {
  if (merge_thread_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(wake_mu_);
      stop_ = true;
    }
    wake_cv_.notify_all();
    merge_thread_.join();
  }
  // epoch_ destruction drains the coordinator before the stacks tear down.
}

std::shared_ptr<LiveIngest::Epoch> LiveIngest::Current() const {
  std::lock_guard<std::mutex> lock(epoch_mu_);
  return epoch_;
}

std::shared_ptr<LiveIngest::Epoch> LiveIngest::BuildLocalEpoch(uint64_t id) {
  const size_t shards = sources_.size();
  const ServeSplit split = SplitServeBudget(serve_, shards);

  auto epoch = std::make_shared<Epoch>();
  epoch->id = id;
  epoch->stacks.reserve(shards);
  epoch->deltas.reserve(shards);
  for (size_t s = 0; s < shards; ++s) {
    ShardServingStack stack;
    stack.pool = std::make_unique<ShardedBufferPool>(
        sources_[s].device, split.pages_per_shard, serve_.num_shards);
    stack.tree = GaussTree::Open(stack.pool.get(), sources_[s].meta_page);
    epoch->base_objects += stack.tree->size();
    QueryServiceOptions service_options;
    service_options.num_workers = split.workers_per_shard;
    service_options.queue_capacity = serve_.queue_capacity;
    stack.service =
        std::make_unique<QueryService>(*stack.tree, service_options);
    epoch->stacks.push_back(std::move(stack));
    epoch->deltas.push_back(
        std::make_shared<DeltaTree>(dim_, ingest_.delta_capacity));
  }

  // Backend list: the base shards first, then their deltas. The coordinator
  // treats every entry uniformly; a delta's exact degenerate interval means
  // it is never asked to refine.
  epoch->backends.reserve(2 * shards);
  for (const ShardServingStack& stack : epoch->stacks) {
    epoch->backends.push_back(
        std::make_unique<InProcessBackend>(stack.service.get()));
  }
  for (const auto& delta : epoch->deltas) {
    epoch->backends.push_back(std::make_unique<DeltaBackend>(delta, policy_));
  }
  std::vector<ShardBackend*> backend_ptrs;
  backend_ptrs.reserve(epoch->backends.size());
  for (const auto& backend : epoch->backends) {
    backend_ptrs.push_back(backend.get());
  }
  ShardCoordinatorOptions coordinator_options;
  coordinator_options.num_threads = serve_.coordinator_threads;
  coordinator_options.queue_capacity = serve_.queue_capacity;
  epoch->coordinator = std::make_unique<ShardCoordinator>(
      std::move(backend_ptrs), coordinator_options);
  return epoch;
}

InsertResult LiveIngest::Insert(const Pfv& pfv) {
  if (pfv.dim() != dim_) {
    return {InsertOutcome::kDimensionMismatch,
            "pfv dimensionality " + std::to_string(pfv.dim()) +
                " != database dimensionality " + std::to_string(dim_)};
  }
  if (!pfv.Valid()) {
    return {InsertOutcome::kInvalidPfv,
            "invalid pfv: mu/sigma lengths differ or sigma <= 0"};
  }

  bool over_threshold = false;
  {
    std::lock_guard<std::mutex> lock(insert_mu_);
    std::shared_ptr<Epoch> epoch = Current();
    const size_t slot =
        epoch->deltas.size() == 1 ? 0 : partitioner_.ShardOf(pfv.id);
    if (!epoch->deltas[slot]->Append(pfv)) {
      return {InsertOutcome::kDeltaFull,
              remote_
                  ? "delta at capacity; remote bases cannot be merged from "
                    "here — rebuild the shards to absorb enrollments"
                  : "delta at capacity; retry once the merge catches up"};
    }
    inserts_accepted_.fetch_add(1, std::memory_order_relaxed);
    if (!remote_ && ingest_.merge_policy == MergePolicy::kBackground) {
      size_t buffered = 0;
      for (const auto& delta : epoch->deltas) buffered += delta->size();
      over_threshold = buffered >= ingest_.merge_threshold;
    }
  }
  if (over_threshold) RequestMerge();
  return {InsertOutcome::kRoutedToDelta, std::string()};
}

std::future<QueryResponse> LiveIngest::Submit(Query query) {
  // The epoch copy pins the serving generation for the admission itself;
  // once the coordinator has the query, epoch retirement waits on the
  // coordinator's own drain.
  std::shared_ptr<Epoch> epoch = Current();
  return epoch->coordinator->Submit(std::move(query));
}

BatchResult LiveIngest::ExecuteBatch(const std::vector<Query>& batch) {
  std::shared_ptr<Epoch> epoch = Current();
  return epoch->coordinator->ExecuteBatch(batch);
}

bool LiveIngest::MergeNow() {
  if (remote_) return false;
  return MergeOnce();
}

bool LiveIngest::MergeOnce() {
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

  for (size_t s = 0; s < sources_.size(); ++s) {
    if (cuts[s] == 0) continue;
    // Collect the shard's base image through the *old* epoch's cache — it
    // keeps serving queries throughout the rebuild.
    PfvDataset combined(dim_);
    old->stacks[s].tree->CollectObjects(&combined);
    for (size_t i = 0; i < cuts[s]; ++i) {
      combined.Add(old->deltas[s]->at(i));
    }
    {
      // Rebuild on fresh pages of the same device (appends only — the old
      // image's pages are never touched, so the old epoch's pinned root
      // stays valid). Superseded pages are not reclaimed.
      BufferPool pool(sources_[s].device, build_cache_pages_);
      GaussTree tree(&pool, dim_, tree_options_);
      tree.BulkLoad(combined, /*threads=*/1);
      tree.Finalize();
      // Redirect the shard's persistent header to the merged image: copy
      // the freshly written header onto the original header page, so both
      // the next epoch and a reopen-after-restart attach to the new base.
      // The old epoch read that page once at Open() and never again.
      std::vector<uint8_t> page(sources_[s].device->page_size());
      sources_[s].device->Read(tree.meta_page(), page.data());
      sources_[s].device->Write(sources_[s].meta_page, page.data());
    }
  }
  for (FilePageDevice* device : file_devices_) device->Sync();

  std::shared_ptr<Epoch> fresh = BuildLocalEpoch(old->id + 1);
  {
    // Republish the delta tails and swap. Holding insert_mu_ makes the cut
    // exact: no insert can land between the tail copy and the epoch swap.
    std::lock_guard<std::mutex> insert_lock(insert_mu_);
    for (size_t s = 0; s < old->deltas.size(); ++s) {
      const size_t now = old->deltas[s]->size();
      for (size_t i = cuts[s]; i < now; ++i) {
        GAUSS_CHECK(fresh->deltas[s]->Append(old->deltas[s]->at(i)));
      }
    }
    std::lock_guard<std::mutex> epoch_lock(epoch_mu_);
    epoch_ = fresh;
  }
  RetireEpoch(std::move(old));
  merges_completed_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void LiveIngest::RetireEpoch(std::shared_ptr<Epoch> old) {
  // Wait until no admission path still holds the epoch (Submit/ExecuteBatch
  // copies are short-lived), then drain: destroying the coordinator blocks
  // until every in-flight scatter-gather over the old generation completes.
  while (old.use_count() > 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
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

void LiveIngest::RequestMerge() {
  {
    std::lock_guard<std::mutex> lock(wake_mu_);
    merge_requested_ = true;
  }
  wake_cv_.notify_all();
}

void LiveIngest::MergeLoop() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(wake_mu_);
      wake_cv_.wait(lock, [this] { return stop_ || merge_requested_; });
      if (stop_) return;
      merge_requested_ = false;
    }
    MergeOnce();
  }
}

IngestStats LiveIngest::stats() const {
  std::shared_ptr<Epoch> epoch = Current();
  IngestStats out;
  for (const auto& delta : epoch->deltas) out.delta_size += delta->size();
  out.epoch = epoch->id;
  out.inserts_accepted = inserts_accepted_.load(std::memory_order_relaxed);
  out.merges_completed = merges_completed_.load(std::memory_order_relaxed);
  if (remote_ || ingest_.merge_policy == MergePolicy::kManual) {
    out.merge_backlog = out.delta_size;
  } else {
    out.merge_backlog =
        out.delta_size >= ingest_.merge_threshold ? out.delta_size : 0;
  }
  return out;
}

IoStats LiveIngest::io_stats() const {
  std::shared_ptr<Epoch> epoch = Current();
  if (remote_) return epoch->coordinator->io_stats();
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

size_t LiveIngest::size() const {
  std::shared_ptr<Epoch> epoch = Current();
  size_t total = epoch->base_objects;
  for (const auto& delta : epoch->deltas) total += delta->size();
  return total;
}

size_t LiveIngest::num_workers() const {
  std::shared_ptr<Epoch> epoch = Current();
  size_t total = 0;
  for (const ShardServingStack& stack : epoch->stacks) {
    total += stack.service->num_workers();
  }
  return total;
}

}  // namespace gauss
