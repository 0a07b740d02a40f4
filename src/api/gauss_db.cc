#include "api/gauss_db.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <thread>
#include <utility>

#include "api/partitioner.h"
#include "api/serving_engine.h"
#include "api/upgrade.h"
#include "common/cpus.h"
#include "common/macros.h"
#include "net/rpc_backend.h"

namespace gauss {

namespace {

// Objects per chunk of a shard's build-phase inserts.
constexpr size_t kPendingChunk = 1024;

using PendingChunks = std::vector<std::unique_ptr<DeltaTree>>;

size_t PendingCount(const PendingChunks& chunks) {
  size_t n = 0;
  for (const auto& chunk : chunks) n += chunk->size();
  return n;
}

// The chunks as runs, in insertion order.
std::vector<GaussTree::SoaRun> PendingRuns(const PendingChunks& chunks) {
  std::vector<GaussTree::SoaRun> runs;
  runs.reserve(chunks.size());
  for (const auto& chunk : chunks) {
    runs.push_back({chunk->ids(), chunk->mu_planes(), chunk->plane_stride(),
                    chunk->size()});
  }
  return runs;
}

// Loads every tree's part side by side: each tree first reserves its pages
// in shard order, then up to UsableCpus() loaders each take the next tree,
// the CPUs shared out among them as bulk-load threads, and call
// load(tree, part, threads). So the image is byte-identical to loads run one
// after another, on any number of CPUs.
template <typename Load>
void LoadSideBySide(const std::vector<std::unique_ptr<GaussTree>>& trees,
                    std::vector<std::vector<uint32_t>> parts,
                    const Load& load) {
  for (size_t s = 0; s < trees.size(); ++s) {
    trees[s]->ReserveBulkLoad(parts[s].size());
  }
  const size_t cpus = UsableCpus();
  const size_t loaders = std::min(cpus, trees.size());
  std::atomic<size_t> next{0};
  const auto run = [&](size_t threads) {
    for (size_t s = next++; s < trees.size(); s = next++) {
      load(trees[s].get(), std::move(parts[s]), threads);
    }
  };
  std::vector<std::jthread> helpers;
  for (size_t i = 1; i < loaders; ++i) {
    helpers.emplace_back(run, cpus / loaders + (i < cpus % loaders));
  }
  run(cpus / loaders + (cpus % loaders > 0));
}

}  // namespace

const char* OpenErrorCodeName(OpenErrorCode code) {
  switch (code) {
    case OpenErrorCode::kIoError: return "io_error";
    case OpenErrorCode::kNotAGaussDb: return "not_a_gaussdb";
    case OpenErrorCode::kVersionMismatch: return "version_mismatch";
    case OpenErrorCode::kPageSizeMismatch: return "page_size_mismatch";
    case OpenErrorCode::kCorruptManifest: return "corrupt_manifest";
    case OpenErrorCode::kMissingShardFile: return "missing_shard_file";
    case OpenErrorCode::kShardCountMismatch: return "shard_count_mismatch";
    case OpenErrorCode::kCorruptPage: return "corrupt_page";
    case OpenErrorCode::kNeedsUpgrade: return "needs_upgrade";
  }
  return "unknown";
}

Session::Session(std::shared_ptr<ServingEngine> engine)
    : engine_(std::move(engine)) {}

std::future<QueryResponse> Session::Submit(Query query) {
  return engine_->Submit(std::move(query));
}

BatchResult Session::ExecuteBatch(const std::vector<Query>& batch) {
  return engine_->ExecuteBatch(batch);
}

InsertResult Session::Insert(const Pfv& pfv) { return engine_->Insert(pfv); }

IngestStats Session::ingest_stats() const { return engine_->stats(); }

bool Session::live_ingest() const { return engine_->live(); }

const GaussTree& Session::tree() const { return engine_->tree(); }

const GaussTree& Session::shard_tree(size_t shard) const {
  return engine_->shard_tree(shard);
}

ShardedBufferPool& Session::cache() { return engine_->cache(); }

IoStats Session::io_stats() const { return engine_->io_stats(); }

size_t Session::num_shards() const { return engine_->num_shards(); }

bool Session::sharded() const { return engine_->sharded(); }

QueryService* Session::shard_service(size_t shard) {
  return engine_->shard_service(shard);
}

size_t Session::num_workers() const { return engine_->num_workers(); }

size_t Session::coordinator_threads() const {
  return engine_->coordinator_threads();
}

const char* InsertOutcomeName(InsertOutcome outcome) {
  switch (outcome) {
    case InsertOutcome::kRoutedToBuild: return "routed_to_build";
    case InsertOutcome::kRoutedToDelta: return "routed_to_delta";
    case InsertOutcome::kFinalized: return "finalized";
    case InsertOutcome::kDeltaFull: return "delta_full";
    case InsertOutcome::kDimensionMismatch: return "dimension_mismatch";
    case InsertOutcome::kInvalidPfv: return "invalid_pfv";
  }
  return "unknown";
}

GaussDb GaussDb::Empty(const GaussDbOptions& options, size_t dim) {
  GaussDb db;
  db.options_ = options;
  db.dim_ = dim;
  db.sharded_ = options.shards.num_shards >= 1;
  if (db.sharded_) {
    GAUSS_CHECK_MSG(options.shards.num_shards <= kMaxShards,
                    "too many shards");
    db.num_shards_ = options.shards.num_shards;
  }
  db.pending_.resize(db.num_shards_);
  return db;
}

void GaussDb::AddDevice(std::unique_ptr<PageDevice> device) {
  build_pools_.push_back(std::make_unique<ShardedBufferPool>(
      device.get(), kBuildPoolPages, /*num_shards=*/1));
  devices_.push_back(std::move(device));
}

void GaussDb::InitFreshTrees() {
  const bool manifest_page = sharded_ && !per_shard_devices_;
  if (manifest_page) {
    GAUSS_CHECK_MSG(ManifestBytes(num_shards()) <= options_.page_size,
                    "shard manifest does not fit the configured page size");
    // The manifest page must be allocated before any tree so it lands on
    // page 0; its contents are written by Finalize().
    GAUSS_CHECK(devices_[0]->Allocate() == kMetaPage);
  }
  for (size_t s = 0; s < num_shards(); ++s) {
    trees_.push_back(std::make_unique<GaussTree>(
        build_pools_[DeviceOf(s)].get(), dim_, options_.tree));
    shard_metas_.push_back(trees_.back()->meta_page());
    // Without a manifest page, OpenFile()/OpenDirectory() find each tree
    // header at page 0 of its device.
    GAUSS_CHECK(manifest_page || shard_metas_.back() == kMetaPage);
  }
}

void GaussDb::WriteDirectoryManifest() {
  GAUSS_CHECK(per_shard_devices_ && !directory_.empty());
  // Write + fsync + rename + directory fsync: a crash at any point leaves
  // either the previous manifest or the new one, never a half-written or
  // zero-length one — Finalize()'s durability promise must include the one
  // file the layout needs to reopen, not just the shard devices it syncs.
  // The tmp name carries the pid: several processes may reattach to one
  // directory concurrently (one gauss_shardd per shard) and each Serve()
  // rewrites an identical manifest — distinct tmp files make the concurrent
  // write+rename pairs race-free (renames are atomic; last writer wins with
  // the same bytes).
  const std::string final_path = directory_ + "/" + kDirManifestName;
  const std::string tmp_path =
      final_path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
  const std::string text =
      DirectoryManifestText(options_.page_size, dim_, num_shards());
  {
    const int fd =
        ::open(tmp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    GAUSS_CHECK_MSG(fd >= 0, tmp_path.c_str());
    size_t written = 0;
    while (written < text.size()) {
      const ssize_t n =
          ::write(fd, text.data() + written, text.size() - written);
      if (n < 0 && errno == EINTR) continue;
      GAUSS_CHECK_MSG(n > 0, tmp_path.c_str());
      written += static_cast<size_t>(n);
    }
    GAUSS_CHECK_MSG(::fsync(fd) == 0, tmp_path.c_str());
    GAUSS_CHECK_MSG(::close(fd) == 0, tmp_path.c_str());
  }
  GAUSS_CHECK_MSG(std::rename(tmp_path.c_str(), final_path.c_str()) == 0,
                  final_path.c_str());
  {
    const int dir_fd = ::open(directory_.c_str(), O_RDONLY | O_DIRECTORY);
    GAUSS_CHECK_MSG(dir_fd >= 0, directory_.c_str());
    GAUSS_CHECK_MSG(::fsync(dir_fd) == 0, directory_.c_str());
    ::close(dir_fd);
  }
}

GaussDb GaussDb::CreateInMemory(size_t dim, GaussDbOptions options) {
  GaussDb db = Empty(options, dim);
  db.AddDevice(std::make_unique<InMemoryPageDevice>(options.page_size));
  db.InitFreshTrees();
  return db;
}

GaussDb GaussDb::CreateOnFile(const std::string& path, size_t dim,
                              GaussDbOptions options) {
  GaussDb db = Empty(options, dim);
  db.AddDevice(std::make_unique<FilePageDevice>(path, options.page_size,
                                                /*truncate=*/true));
  db.InitFreshTrees();
  return db;
}

GaussDb GaussDb::CreateOnDirectory(const std::string& path, size_t dim,
                                   GaussDbOptions options) {
  GAUSS_CHECK_MSG(options.shards.num_shards >= 1,
                  "CreateOnDirectory requires shards.num_shards >= 1 (the "
                  "directory layout is one device per shard)");
  GaussDb db = Empty(options, dim);
  db.per_shard_devices_ = true;
  db.directory_ = path;
  if (::mkdir(path.c_str(), 0755) != 0) {
    GAUSS_CHECK_MSG(errno == EEXIST, path.c_str());
  }
  for (size_t s = 0; s < db.num_shards(); ++s) {
    db.AddDevice(std::make_unique<FilePageDevice>(
        path + "/" + ShardFileName(s), options.page_size, /*truncate=*/true));
  }
  db.InitFreshTrees();
  return db;
}

OpenResult GaussDb::OpenFile(const std::string& path, GaussDbOptions options) {
  StoredImage image;
  OpenError error;
  if (!ReadFileImage(path, options.page_size, &image, &error)) return error;
  return Attach(path, &image, options);
}

OpenResult GaussDb::OpenDirectory(const std::string& path,
                                  GaussDbOptions options) {
  StoredImage image;
  OpenError error;
  if (!ReadDirectoryImage(path, options.page_size, &image, &error)) {
    return error;
  }
  // A writer that crashed between creating MANIFEST.tmp.<pid> and renaming
  // it over MANIFEST left that file behind for good (no later writer reuses
  // the pid suffix); the MANIFEST just read is authoritative, so sweep
  // them. A live writer that loses its tmp file fails only its rename, and
  // rewrites identical bytes on its next Finalize().
  if (DIR* dir = ::opendir(path.c_str())) {
    const std::string stale_prefix = std::string(kDirManifestName) + ".tmp.";
    std::vector<std::string> stale;
    while (const struct dirent* entry = ::readdir(dir)) {
      if (std::strncmp(entry->d_name, stale_prefix.c_str(),
                       stale_prefix.size()) == 0) {
        stale.push_back(path + "/" + entry->d_name);
      }
    }
    ::closedir(dir);
    for (const std::string& stale_path : stale) {
      ::unlink(stale_path.c_str());  // best-effort; it is garbage either way
    }
  }
  return Attach(path, &image, options);
}

OpenResult GaussDb::Attach(const std::string& path, StoredImage* image,
                           GaussDbOptions options) {
  if (!image->outdated.empty()) {
    return OpenError{OpenErrorCode::kNeedsUpgrade,
                     image->outdated + ": this build serves only the current "
                                       "format; rewrite the database once "
                                       "with GaussDb::Upgrade"};
  }
  options.shards.num_shards = image->sharded ? image->metas.size() : 0;
  GaussDb db = Empty(options, image->dim);
  db.per_shard_devices_ = image->directory;
  if (image->directory) db.directory_ = path;
  db.shard_metas_ = image->metas;
  for (auto& device : image->devices) db.AddDevice(std::move(device));
  for (size_t s = 0; s < db.shard_metas_.size(); ++s) {
    std::string error;
    auto tree = GaussTree::TryOpen(db.build_pools_[db.DeviceOf(s)].get(),
                                   db.shard_metas_[s], &error);
    if (tree == nullptr) {
      return OpenError{OpenErrorCode::kCorruptPage,
                       path + ": shard " + std::to_string(s) + ": " + error};
    }
    db.trees_.push_back(std::move(tree));
  }
  db.options_.tree = db.trees_[0]->options();
  return db;
}

size_t GaussDb::size() const {
  if (!trees_.empty()) {
    size_t total = 0;
    for (const auto& tree : trees_) total += tree->size();
    for (const PendingChunks& chunks : pending_) total += PendingCount(chunks);
    return total;
  }
  if (live_ != nullptr) return live_->size();
  return size_;
}

bool GaussDb::finalized() const {
  for (const auto& tree : trees_) {
    if (!tree->store().finalized()) return false;
  }
  for (const PendingChunks& chunks : pending_) {
    if (!chunks.empty()) return false;
  }
  return true;
}

void GaussDb::Build(const PfvDataset& dataset) {
  GAUSS_CHECK_MSG(!trees_.empty(),
                  "Build after Serve(): build phase is over");
  GAUSS_CHECK_MSG(size() == 0 && !built(),
                  "Build requires an empty database (use Insert to grow one)");
  GAUSS_CHECK_MSG(dataset.dim() == dim_, "dataset dimensionality mismatch");
  // Every shard reads the caller's dataset through its part's positions.
  std::vector<std::vector<uint32_t>> parts;
  if (sharded_) {
    parts = SplitSpatial(dataset, trees_.size(), trees_[0]->capacities().leaf);
  } else {
    parts.resize(1, std::vector<uint32_t>(dataset.size()));
    std::iota(parts[0].begin(), parts[0].end(), uint32_t{0});
  }
  LoadSideBySide(trees_, std::move(parts),
                 [&](GaussTree* tree, std::vector<uint32_t> part,
                     size_t threads) {
                   tree->BulkLoad(dataset, std::move(part), threads);
                 });
  Finalize();
}

InsertResult GaussDb::Insert(const Pfv& pfv) {
  if (pfv.dim() != dim_) {
    return {InsertOutcome::kDimensionMismatch,
            "pfv dimensionality " + std::to_string(pfv.dim()) +
                " != database dimensionality " + std::to_string(dim_)};
  }
  if (!pfv.Valid()) {
    return {InsertOutcome::kInvalidPfv,
            "invalid pfv: mu/sigma lengths differ or sigma <= 0"};
  }
  if (!trees_.empty()) {
    size_t shard = 0;
    if (built() && trees_.size() > 1) {
      // Section 5.3 rule over the shards' root entries (api/partitioner.h),
      // each grown by the objects routed to it since the load.
      if (routes_.empty()) {
        for (const auto& tree : trees_) routes_.push_back(tree->RootEntry());
      }
      shard = ChooseSubtree(routes_, pfv, options_.tree);
      routes_[shard].Include(pfv);
      ++routes_[shard].count;
    }
    PendingChunks& chunks = pending_[shard];
    if (chunks.empty() || !chunks.back()->Append(pfv)) {
      chunks.push_back(std::make_unique<DeltaTree>(dim_, kPendingChunk));
      GAUSS_CHECK(chunks.back()->Append(pfv));
    }
    return {InsertOutcome::kRoutedToBuild, std::string()};
  }
  if (live_ != nullptr) return live_->Insert(pfv);
  return {InsertOutcome::kFinalized,
          "Insert after Serve(): the serving pages are immutable (enable "
          "GaussDbOptions::ingest for live ingest)"};
}

bool GaussDb::MergeIngest() {
  return live_ != nullptr && live_->MergeNow();
}

IngestStats GaussDb::ingest_stats() const {
  return live_ != nullptr ? live_->stats() : IngestStats{};
}

void GaussDb::LoadPending() {
  if (pending_[0].empty()) return;
  const std::vector<GaussTree::SoaRun> runs = PendingRuns(pending_[0]);
  std::vector<std::vector<uint32_t>> parts;
  if (sharded_) {
    parts = SplitSpatial(runs, dim_, trees_.size(),
                         trees_[0]->capacities().leaf);
  } else {
    parts.resize(1, std::vector<uint32_t>(PendingCount(pending_[0])));
    std::iota(parts[0].begin(), parts[0].end(), uint32_t{0});
  }
  LoadSideBySide(trees_, std::move(parts),
                 [&](GaussTree* tree, std::vector<uint32_t> part,
                     size_t threads) {
                   tree->BulkLoad(runs, std::move(part), threads);
                 });
  pending_[0].clear();
}

void GaussDb::RebuildPending() {
  std::vector<ShardRebuild> rebuilds;
  std::vector<size_t> shards;
  for (size_t s = 0; s < trees_.size(); ++s) {
    if (pending_[s].empty()) continue;
    rebuilds.push_back({trees_[s].get(), devices_[DeviceOf(s)].get(),
                        shard_metas_[s], PendingRuns(pending_[s])});
    shards.push_back(s);
  }
  if (rebuilds.empty()) return;
  // A device's free list dies with the process, so the pages of images that
  // an earlier process retired are found again here and taken first.
  for (size_t d = 0; d < devices_.size(); ++d) {
    std::vector<PageId> reached;
    for (size_t s = 0; s < trees_.size(); ++s) {
      if (DeviceOf(s) != d) continue;
      reached.push_back(shard_metas_[s]);
      const std::vector<PageId>& pages = trees_[s]->store().pages();
      reached.insert(reached.end(), pages.begin(), pages.end());
    }
    RecycleUnreachable(devices_[d].get(), reached);
  }
  const std::vector<std::vector<PageId>> retired =
      RebuildShards(rebuilds, UsableCpus());
  // Nothing reads the old images any more once their trees are gone and
  // the pools over them hold no frame (a stale header frame included).
  for (const size_t s : shards) trees_[s].reset();
  for (const size_t s : shards) build_pools_[DeviceOf(s)]->Clear();
  for (size_t r = 0; r < rebuilds.size(); ++r) {
    rebuilds[r].device->Recycle(retired[r]);
  }
  for (const size_t s : shards) {
    trees_[s] = GaussTree::Open(build_pools_[DeviceOf(s)].get(),
                                shard_metas_[s]);
    pending_[s].clear();
  }
  routes_.clear();
}

void GaussDb::Finalize() {
  GAUSS_CHECK_MSG(!trees_.empty(),
                  "Finalize after Serve(): build phase is over");
  if (built()) {
    RebuildPending();
  } else {
    LoadPending();
  }
  for (const auto& tree : trees_) tree->Finalize();
  if (sharded_ && per_shard_devices_) {
    WriteDirectoryManifest();
  } else if (sharded_) {
    const std::vector<uint8_t> page =
        ManifestPage(options_.page_size, dim_, shard_metas_);
    build_pools_[0]->WritePage(kMetaPage, page.data());
    build_pools_[0]->FlushAll();
  }
  for (const auto& device : devices_) device->Sync();
}

Session GaussDb::Serve(ServeOptions options) {
  if (!trees_.empty()) {
    Finalize();
    // Atomic phase switch: tear down the build stack (trees first, then
    // their pools — Finalize already flushed) before the serving stack
    // attaches to the same pages. size_ is re-derived from the reopened
    // serving trees below.
    trees_.clear();
    build_pools_.clear();
  }
  GAUSS_CHECK_MSG(!shard_metas_.empty(), "Serve on an unbuilt GaussDb");

  // Live ingest: one engine per database, built from the first Serve()
  // call's options; later calls share it (same epochs, same deltas).
  if (live_ != nullptr) return Session(live_);
  std::vector<ServingEngine::ShardSource> sources;
  sources.reserve(shard_metas_.size());
  for (size_t s = 0; s < shard_metas_.size(); ++s) {
    sources.push_back({devices_[DeviceOf(s)].get(), shard_metas_[s]});
  }
  auto engine = std::make_shared<ServingEngine>(
      std::move(sources), sharded_, dim_, options_.tree, options,
      options_.ingest);
  if (options_.ingest.enabled) {
    live_ = engine;
  } else {
    size_ = engine->size();
  }
  return Session(std::move(engine));
}

ServeResult GaussDb::ServeRemote(const std::vector<std::string>& endpoints,
                                 ServeOptions options) {
  if (endpoints.empty()) {
    return NetError{NetErrorCode::kConnectFailed,
                    "ServeRemote needs >= 1 shard endpoint"};
  }
  RpcBackendOptions rpc_options;
  rpc_options.connect_timeout =
      std::chrono::milliseconds(options.rpc_connect_timeout_ms);
  rpc_options.request_timeout =
      std::chrono::milliseconds(options.rpc_request_timeout_ms);

  std::vector<std::unique_ptr<ShardBackend>> backends;
  backends.reserve(endpoints.size());
  size_t dim = 0;
  for (const std::string& endpoint : endpoints) {
    const size_t colon = endpoint.rfind(':');
    unsigned long port = 0;
    if (colon != std::string::npos && colon + 1 < endpoint.size()) {
      char* end = nullptr;
      port = std::strtoul(endpoint.c_str() + colon + 1, &end, 10);
      if (end == nullptr || *end != '\0') port = 0;
    }
    if (colon == std::string::npos || colon == 0 || port == 0 ||
        port > 65535) {
      return NetError{NetErrorCode::kConnectFailed,
                      endpoint + ": expected host:port"};
    }
    NetError error;
    auto backend =
        RpcBackend::Connect(endpoint.substr(0, colon),
                            static_cast<uint16_t>(port), rpc_options, &error);
    if (backend == nullptr) {
      error.message = endpoint + ": " + error.message;
      return error;
    }
    if (backends.empty()) {
      dim = backend->dim();
    } else if (backend->dim() != dim) {
      return NetError{
          NetErrorCode::kProtocolMismatch,
          endpoint + ": shard dimensionality " +
              std::to_string(backend->dim()) +
              " disagrees with the first shard's " + std::to_string(dim)};
    }
    backends.push_back(std::move(backend));
  }

  return Session(
      std::make_shared<ServingEngine>(std::move(backends), options));
}

}  // namespace gauss
