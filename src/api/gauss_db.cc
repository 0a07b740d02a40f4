#include "api/gauss_db.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>
#include <utility>

#include "api/serving_engine.h"
#include "common/macros.h"
#include "net/rpc_backend.h"

namespace gauss {

namespace {

// Persistent shard manifest at page 0 of a sharded single-file database,
// written by Finalize(). Distinguished from the legacy layout (GaussTree
// header at page 0) by its magic; followed in-page by num_shards PageId
// entries naming each shard tree's header page.
constexpr uint64_t kGaussDbManifestMagic = 0x47415553'53444231ull;  // "GAUSSDB1"
// v3: added partition_kind (new builds are cut spatially).
// v2: added hash_seed (the partitioner's routing seed became persistent).
// v1 and v2 are still read as hash images — v1 used the unseeded routing,
// which is exactly hash_seed = 0.
constexpr uint32_t kGaussDbManifestVersion = 3;

struct ManifestLayout {
  uint64_t magic;
  uint32_t version;
  // Page size the database was created with; checked on OpenFile() like the
  // tree header's (a mismatched device maps PageIds to wrong byte offsets).
  uint32_t page_size;
  uint32_t dim;
  uint32_t num_shards;
  uint64_t hash_seed;       // v2+; v1 manifests end after num_shards
  uint32_t partition_kind;  // v3+ (PartitionKind); v2 manifests end before
  uint32_t reserved;
};

// Byte size of the fixed manifest header as persisted by each version (the
// shard PageId list starts right after it). v1 ended at num_shards; padding
// placed hash_seed at offset 24, so v1's header was 24 bytes and v2's 32.
size_t ManifestHeaderBytes(uint32_t version) {
  if (version >= 3) return sizeof(ManifestLayout);
  return version == 2 ? offsetof(ManifestLayout, partition_kind)
                      : offsetof(ManifestLayout, hash_seed);
}

// Shard count bound: nobody needs more partitions than this on one node.
// The manifest (header + PageId per shard) must additionally fit the
// configured page size — checked against it where the shard count is fixed.
constexpr size_t kMaxShards = 64;

size_t ManifestBytes(size_t num_shards) {
  return sizeof(ManifestLayout) + num_shards * sizeof(PageId);
}

// Directory layout: <dir>/MANIFEST names the format and the shard files.
constexpr char kDirManifestName[] = "MANIFEST";
constexpr char kDirManifestTag[] = "gaussdb-directory";
constexpr uint32_t kDirManifestVersion = 1;
// Values of the MANIFEST's `partition` key. A MANIFEST without the key was
// written before spatial partitioning: a hash image with a `hash_seed` key.
constexpr char kPartitionHash[] = "hash";
constexpr char kPartitionSpatial[] = "spatial";

std::string ShardFileName(size_t shard) {
  char name[48];
  std::snprintf(name, sizeof(name), "shard-%04zu.gauss", shard);
  return name;
}

OpenError Err(OpenErrorCode code, std::string message) {
  return OpenError{code, std::move(message)};
}

// A manifest shard path must stay inside the database directory: relative,
// no ".." component, and no "." component either — "." only exists to
// alias a path the duplicate-entry check below would otherwise catch (a
// symlinked *file* inside the directory is the supported way to spread
// shards over mounts).
bool SafeRelativePath(const std::string& path) {
  if (path.empty() || path.front() == '/') return false;
  std::istringstream stream(path);
  std::string component;
  while (std::getline(stream, component, '/')) {
    if (component.empty() || component == "." || component == "..") {
      return false;
    }
  }
  return true;
}

// Validates that `device` page 0 holds a single-tree image compatible with
// the expected geometry; fills `*error` and returns false otherwise.
// `what` names the file for messages; `dim` of 0 skips the dim check (the
// legacy unsharded layout learns the dim from the header itself).
bool CheckTreeHeader(PageDevice& device, const std::string& what, uint32_t dim,
                     OpenError* error) {
  if (device.PageCount() == 0) {
    *error = Err(OpenErrorCode::kNotAGaussDb,
                 what + ": empty file, no Gauss-tree header");
    return false;
  }
  std::vector<uint8_t> page(device.page_size());
  device.Read(/*id=*/0, page.data());
  const GaussTree::HeaderInfo info =
      GaussTree::InspectHeader(page.data(), page.size());
  if (!info.valid_magic) {
    *error = Err(OpenErrorCode::kNotAGaussDb,
                 what + ": page 0 does not hold a Gauss-tree header");
    return false;
  }
  if (!GaussTree::ReadsHeaderVersion(info.version)) {
    *error = Err(OpenErrorCode::kVersionMismatch,
                 what + ": Gauss-tree header version " +
                     std::to_string(info.version) + ", this build reads " +
                     std::to_string(GaussTree::header_version()) +
                     " and the version before it");
    return false;
  }
  if (info.page_size != device.page_size()) {
    *error = Err(OpenErrorCode::kPageSizeMismatch,
                 what + ": page size mismatch: tree serialized with " +
                     std::to_string(info.page_size) + ", device opened with " +
                     std::to_string(device.page_size()));
    return false;
  }
  if (dim != 0 && info.dim != dim) {
    *error = Err(OpenErrorCode::kCorruptManifest,
                 what + ": shard tree dimensionality " +
                     std::to_string(info.dim) +
                     " disagrees with the manifest's " + std::to_string(dim));
    return false;
  }
  return true;
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

void GaussDb::InitShardRouting(const GaussDbOptions& options) {
  sharded_ = options.shards.num_shards >= 1;
  if (sharded_) {
    GAUSS_CHECK_MSG(options.shards.num_shards <= kMaxShards,
                    "too many shards");
    partitioner_ = Partitioner::Spatial(options.shards.num_shards);
  }
}

void GaussDb::InitFreshTrees() {
  if (per_shard_devices_) {
    // Directory layout: every shard file is an ordinary single-tree image —
    // its tree header must land at page 0 of its own device.
    const size_t shards = num_shards();
    trees_.reserve(shards);
    shard_metas_.reserve(shards);
    for (size_t s = 0; s < shards; ++s) {
      trees_.push_back(std::make_unique<GaussTree>(build_pools_[s].get(), dim_,
                                                   options_.tree));
      shard_metas_.push_back(trees_.back()->meta_page());
      GAUSS_CHECK(shard_metas_.back() == kMetaPage);
    }
    return;
  }
  if (sharded_) {
    GAUSS_CHECK_MSG(ManifestBytes(num_shards()) <= options_.page_size,
                    "shard manifest does not fit the configured page size");
    // The manifest page must be allocated before any tree so it lands on
    // page 0; its contents are written by Finalize().
    const PageId manifest = devices_[0]->Allocate();
    GAUSS_CHECK(manifest == kMetaPage);
  }
  const size_t shards = num_shards();
  trees_.reserve(shards);
  shard_metas_.reserve(shards);
  for (size_t s = 0; s < shards; ++s) {
    trees_.push_back(std::make_unique<GaussTree>(build_pools_[0].get(), dim_,
                                                 options_.tree));
    shard_metas_.push_back(trees_.back()->meta_page());
  }
  // Unsharded: OpenFile() depends on the legacy header landing on page 0.
  if (!sharded_) GAUSS_CHECK(shard_metas_[0] == kMetaPage);
}

void GaussDb::WriteManifest() {
  GAUSS_CHECK(sharded_);
  if (per_shard_devices_) {
    WriteDirectoryManifest();
    return;
  }
  ManifestLayout manifest;
  std::memset(&manifest, 0, sizeof(manifest));
  manifest.magic = kGaussDbManifestMagic;
  manifest.version = kGaussDbManifestVersion;
  manifest.page_size = options_.page_size;
  manifest.dim = static_cast<uint32_t>(dim_);
  manifest.num_shards = static_cast<uint32_t>(shard_metas_.size());
  manifest.hash_seed = partitioner_.hash_seed();
  manifest.partition_kind = static_cast<uint32_t>(partitioner_.kind());
  std::vector<uint8_t> page(options_.page_size, 0);
  std::memcpy(page.data(), &manifest, sizeof(manifest));
  std::memcpy(page.data() + sizeof(manifest), shard_metas_.data(),
              shard_metas_.size() * sizeof(PageId));
  build_pools_[0]->WritePage(kMetaPage, page.data());
  build_pools_[0]->FlushAll();
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
  std::ostringstream contents;
  contents << kDirManifestTag << ' ' << kDirManifestVersion << '\n'
           << "page_size " << options_.page_size << '\n'
           << "dim " << dim_ << '\n'
           << "partition "
           << (partitioner_.kind() == PartitionKind::kHash ? kPartitionHash
                                                            : kPartitionSpatial)
           << '\n';
  if (partitioner_.kind() == PartitionKind::kHash) {
    contents << "hash_seed " << partitioner_.hash_seed() << '\n';
  }
  contents << "num_shards " << num_shards() << '\n';
  for (size_t s = 0; s < num_shards(); ++s) {
    contents << "shard " << ShardFileName(s) << '\n';
  }
  const std::string text = contents.str();
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
  GaussDb db;
  db.options_ = options;
  db.dim_ = dim;
  db.InitShardRouting(options);
  db.devices_.push_back(std::make_unique<InMemoryPageDevice>(options.page_size));
  db.build_pools_.push_back(std::make_unique<BufferPool>(
      db.devices_[0].get(), kBuildPoolPages));
  db.InitFreshTrees();
  return db;
}

GaussDb GaussDb::CreateOnFile(const std::string& path, size_t dim,
                              GaussDbOptions options) {
  GaussDb db;
  db.options_ = options;
  db.dim_ = dim;
  db.InitShardRouting(options);
  auto device = std::make_unique<FilePageDevice>(path, options.page_size,
                                                 /*truncate=*/true);
  db.file_devices_.push_back(device.get());
  db.devices_.push_back(std::move(device));
  db.build_pools_.push_back(std::make_unique<BufferPool>(
      db.devices_[0].get(), kBuildPoolPages));
  db.InitFreshTrees();
  return db;
}

GaussDb GaussDb::CreateOnDirectory(const std::string& path, size_t dim,
                                   GaussDbOptions options) {
  GAUSS_CHECK_MSG(options.shards.num_shards >= 1,
                  "CreateOnDirectory requires shards.num_shards >= 1 (the "
                  "directory layout is one device per shard)");
  GaussDb db;
  db.options_ = options;
  db.dim_ = dim;
  db.InitShardRouting(options);
  db.per_shard_devices_ = true;
  db.directory_ = path;
  if (::mkdir(path.c_str(), 0755) != 0) {
    GAUSS_CHECK_MSG(errno == EEXIST, path.c_str());
  }
  const size_t shards = db.num_shards();
  db.devices_.reserve(shards);
  db.build_pools_.reserve(shards);
  for (size_t s = 0; s < shards; ++s) {
    auto device = std::make_unique<FilePageDevice>(
        path + "/" + ShardFileName(s), options.page_size, /*truncate=*/true);
    db.file_devices_.push_back(device.get());
    db.devices_.push_back(std::move(device));
    db.build_pools_.push_back(std::make_unique<BufferPool>(
        db.devices_[s].get(), kBuildPoolPages));
  }
  db.InitFreshTrees();
  return db;
}

OpenResult GaussDb::OpenFile(const std::string& path, GaussDbOptions options) {
  std::string device_error;
  auto device =
      FilePageDevice::TryOpen(path, options.page_size, &device_error);
  if (device == nullptr) {
    return Err(OpenErrorCode::kIoError, device_error);
  }
  if (device->PageCount() == 0) {
    return Err(OpenErrorCode::kNotAGaussDb,
               path + ": empty file, not a finalized GaussDb");
  }
  // No GaussDb header fits a page this small, and the manifest copy below
  // must not read past the page buffer.
  if (options.page_size < sizeof(ManifestLayout)) {
    return Err(OpenErrorCode::kNotAGaussDb,
               path + ": page size " + std::to_string(options.page_size) +
                   " is too small to hold any GaussDb header");
  }

  // Page 0 is either the shard manifest (sharded layout) or the tree header
  // (legacy layout); the magic decides. Persistent facts override whatever
  // the caller passed.
  std::vector<uint8_t> page(device->page_size());
  device->Read(kMetaPage, page.data());
  ManifestLayout manifest;
  std::memcpy(&manifest, page.data(), sizeof(manifest));

  GaussDb db;
  db.options_ = options;

  if (manifest.magic == kGaussDbManifestMagic) {
    if (manifest.version < 1 || manifest.version > kGaussDbManifestVersion) {
      return Err(OpenErrorCode::kVersionMismatch,
                 path + ": GaussDb manifest version " +
                     std::to_string(manifest.version) + ", this build reads " +
                     std::to_string(kGaussDbManifestVersion) + " and below");
    }
    // v1 predates the persistent hash seed: those databases were routed
    // unseeded, which is exactly seed 0. v1 and v2 predate spatial
    // partitioning: both are hash images.
    if (manifest.version < 2) manifest.hash_seed = 0;
    if (manifest.version < 3) {
      manifest.partition_kind = static_cast<uint32_t>(PartitionKind::kHash);
    }
    const uint32_t kind = manifest.partition_kind;
    if (kind != static_cast<uint32_t>(PartitionKind::kHash) &&
        kind != static_cast<uint32_t>(PartitionKind::kSpatial)) {
      return Err(OpenErrorCode::kCorruptManifest,
                 path + ": unknown partition kind " + std::to_string(kind));
    }
    if (manifest.page_size != options.page_size) {
      return Err(OpenErrorCode::kPageSizeMismatch,
                 path + ": page size mismatch: the database was created with " +
                     std::to_string(manifest.page_size) +
                     ", the device is opened with " +
                     std::to_string(options.page_size));
    }
    const size_t header_bytes = ManifestHeaderBytes(manifest.version);
    if (manifest.num_shards < 1 || manifest.num_shards > kMaxShards ||
        header_bytes + manifest.num_shards * sizeof(PageId) >
            options.page_size) {
      return Err(OpenErrorCode::kCorruptManifest,
                 path + ": shard manifest names " +
                     std::to_string(manifest.num_shards) +
                     " shards, outside the representable range");
    }
    db.sharded_ = true;
    db.partitioner_ =
        kind == static_cast<uint32_t>(PartitionKind::kHash)
            ? Partitioner::Hash(manifest.num_shards, manifest.hash_seed)
            : Partitioner::Spatial(manifest.num_shards);
    db.options_.shards.num_shards = manifest.num_shards;
    db.shard_metas_.resize(manifest.num_shards);
    std::memcpy(db.shard_metas_.data(), page.data() + header_bytes,
                manifest.num_shards * sizeof(PageId));
    for (const PageId meta : db.shard_metas_) {
      if (meta >= device->PageCount()) {
        return Err(OpenErrorCode::kCorruptManifest,
                   path + ": shard header page " + std::to_string(meta) +
                       " is beyond the file's " +
                       std::to_string(device->PageCount()) + " pages");
      }
      std::vector<uint8_t> shard_page(device->page_size());
      device->Read(meta, shard_page.data());
      const GaussTree::HeaderInfo info =
          GaussTree::InspectHeader(shard_page.data(), shard_page.size());
      if (!info.valid_magic || info.dim != manifest.dim ||
          info.page_size != options.page_size) {
        return Err(OpenErrorCode::kCorruptManifest,
                   path + ": shard header page " + std::to_string(meta) +
                       " does not hold a matching Gauss-tree header");
      }
      if (!GaussTree::ReadsHeaderVersion(info.version)) {
        return Err(OpenErrorCode::kVersionMismatch,
                   path + ": shard tree header version " +
                       std::to_string(info.version) + ", this build reads " +
                       std::to_string(GaussTree::header_version()) +
                       " and the version before it");
      }
    }
    db.dim_ = manifest.dim;
  } else {
    // Legacy layout: the (magic-checked) tree header lives at page 0 by
    // construction.
    OpenError error;
    if (!CheckTreeHeader(*device, path, /*dim=*/0, &error)) return error;
    db.shard_metas_.push_back(kMetaPage);
  }

  db.file_devices_.push_back(device.get());
  db.devices_.push_back(std::move(device));
  db.build_pools_.push_back(std::make_unique<BufferPool>(
      db.devices_[0].get(), kBuildPoolPages));
  for (const PageId meta : db.shard_metas_) {
    std::string error;
    auto tree = GaussTree::TryOpen(db.build_pools_[0].get(), meta, &error);
    if (tree == nullptr) {
      return Err(OpenErrorCode::kCorruptPage, path + ": " + error);
    }
    db.trees_.push_back(std::move(tree));
  }
  db.dim_ = db.trees_[0]->dim();
  db.options_.tree = db.trees_[0]->options();
  for (const auto& tree : db.trees_) {
    GAUSS_CHECK_MSG(tree->dim() == db.dim_,
                    "shard trees disagree on dimensionality");
  }
  return db;
}

OpenResult GaussDb::OpenDirectory(const std::string& path,
                                  GaussDbOptions options) {
  const std::string manifest_path = path + "/" + kDirManifestName;
  std::ifstream in(manifest_path);
  if (!in.good()) {
    return Err(OpenErrorCode::kIoError,
               manifest_path + ": " + std::strerror(errno));
  }

  std::string tag;
  uint32_t version = 0;
  if (!(in >> tag >> version) || tag != kDirManifestTag) {
    return Err(OpenErrorCode::kNotAGaussDb,
               manifest_path + ": not a GaussDb directory manifest");
  }
  if (version != kDirManifestVersion) {
    return Err(OpenErrorCode::kVersionMismatch,
               manifest_path + ": directory manifest version " +
                   std::to_string(version) + ", this build reads " +
                   std::to_string(kDirManifestVersion));
  }

  uint32_t page_size = 0;
  uint64_t dim = 0;
  uint64_t hash_seed = 0;
  uint64_t num_shards = 0;
  std::string partition = kPartitionHash;
  bool have_page_size = false, have_dim = false, have_seed = false,
       have_shards = false;
  std::vector<std::string> shard_paths;
  std::string key;
  while (in >> key) {
    if (key == "page_size") {
      have_page_size = static_cast<bool>(in >> page_size);
    } else if (key == "dim") {
      have_dim = static_cast<bool>(in >> dim);
    } else if (key == "hash_seed") {
      have_seed = static_cast<bool>(in >> hash_seed);
    } else if (key == "partition") {
      if (!(in >> partition) ||
          (partition != kPartitionHash && partition != kPartitionSpatial)) {
        return Err(OpenErrorCode::kCorruptManifest,
                   manifest_path + ": unknown partition '" + partition + "'");
      }
    } else if (key == "num_shards") {
      have_shards = static_cast<bool>(in >> num_shards);
    } else if (key == "shard") {
      std::string rel;
      if (!(in >> rel)) break;
      shard_paths.push_back(std::move(rel));
    } else {
      return Err(OpenErrorCode::kCorruptManifest,
                 manifest_path + ": unknown manifest key '" + key + "'");
    }
  }
  // Only a hash image needs its seed; a MANIFEST without the `partition`
  // key predates spatial partitioning and is one.
  const bool hashed = partition == kPartitionHash;
  if (!have_page_size || !have_dim || (hashed && !have_seed) ||
      !have_shards || dim == 0) {
    return Err(OpenErrorCode::kCorruptManifest,
               manifest_path + ": truncated manifest (missing page_size/dim/"
                               "hash_seed/num_shards)");
  }
  if (num_shards < 1 || num_shards > kMaxShards) {
    return Err(OpenErrorCode::kCorruptManifest,
               manifest_path + ": shard count " + std::to_string(num_shards) +
                   " outside the representable range");
  }
  if (shard_paths.size() != num_shards) {
    return Err(OpenErrorCode::kShardCountMismatch,
               manifest_path + ": manifest declares " +
                   std::to_string(num_shards) + " shards but lists " +
                   std::to_string(shard_paths.size()) + " shard files");
  }
  if (page_size != options.page_size) {
    return Err(OpenErrorCode::kPageSizeMismatch,
               manifest_path + ": page size mismatch: the database was "
                               "created with " +
                   std::to_string(page_size) + ", the device is opened with " +
                   std::to_string(options.page_size));
  }

  // A writer that crashed between creating MANIFEST.tmp.<pid> and renaming
  // it over MANIFEST leaves the tmp file behind forever (the pid suffix
  // means no later writer reuses the name). They are garbage by
  // construction — the rename either happened (the data lives in MANIFEST)
  // or the manifest write never completed (the previous manifest, just
  // validated above, is authoritative) — so sweep them here rather than let
  // them accumulate. Unlink races with a live writer are benign: losing a
  // tmp file before its rename only makes that writer's rename fail, and it
  // retries by rewriting identical bytes on the next Finalize().
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

  GaussDb db;
  db.options_ = options;
  db.options_.shards.num_shards = num_shards;
  db.InitShardRouting(db.options_);
  if (hashed) db.partitioner_ = Partitioner::Hash(num_shards, hash_seed);
  db.per_shard_devices_ = true;
  db.directory_ = path;
  db.dim_ = static_cast<size_t>(dim);

  // Duplicate entries would alias two read-write shard devices onto one
  // file — reads would consult the same tree twice and a reopen-and-Insert
  // would interleave two trees' appends, corrupting it.
  {
    std::set<std::string> unique_paths(shard_paths.begin(), shard_paths.end());
    if (unique_paths.size() != shard_paths.size()) {
      return Err(OpenErrorCode::kCorruptManifest,
                 manifest_path + ": manifest lists the same shard file twice");
    }
  }

  for (size_t s = 0; s < shard_paths.size(); ++s) {
    if (!SafeRelativePath(shard_paths[s])) {
      return Err(OpenErrorCode::kCorruptManifest,
                 manifest_path + ": shard path '" + shard_paths[s] +
                     "' escapes the database directory");
    }
    const std::string shard_path = path + "/" + shard_paths[s];
    std::string device_error;
    auto device =
        FilePageDevice::TryOpen(shard_path, options.page_size, &device_error);
    if (device == nullptr) {
      return Err(OpenErrorCode::kMissingShardFile,
                 "shard " + std::to_string(s) + ": " + device_error);
    }
    OpenError error;
    if (!CheckTreeHeader(*device, shard_path, static_cast<uint32_t>(dim),
                         &error)) {
      return error;
    }
    db.file_devices_.push_back(device.get());
    db.devices_.push_back(std::move(device));
    db.build_pools_.push_back(std::make_unique<BufferPool>(
        db.devices_[s].get(), kBuildPoolPages));
    db.shard_metas_.push_back(kMetaPage);
    std::string tree_error;
    auto tree = GaussTree::TryOpen(db.build_pools_[s].get(), kMetaPage,
                                   &tree_error);
    if (tree == nullptr) {
      return Err(OpenErrorCode::kCorruptPage, shard_path + ": " + tree_error);
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
    return total;
  }
  if (live_ != nullptr) return live_->size();
  return size_;
}

bool GaussDb::finalized() const {
  for (const auto& tree : trees_) {
    if (!tree->store().finalized()) return false;
  }
  return true;
}

void GaussDb::Build(const PfvDataset& dataset) {
  GAUSS_CHECK_MSG(!trees_.empty(),
                  "Build after Serve(): build phase is over");
  GAUSS_CHECK_MSG(size() == 0 && !finalized(),
                  "Build requires an empty database (use Insert to grow one)");
  GAUSS_CHECK_MSG(dataset.dim() == dim_, "dataset dimensionality mismatch");
  if (sharded_) {
    // Build() runs on fresh databases only (a reopened image is finalized),
    // and every fresh database is spatial.
    GAUSS_CHECK(partitioner_.kind() == PartitionKind::kSpatial);
    const std::vector<PfvDataset> parts =
        partitioner_.SplitSpatial(dataset, trees_[0]->capacities().leaf);
    for (size_t s = 0; s < trees_.size(); ++s) {
      trees_[s]->BulkLoad(parts[s]);
    }
  } else {
    trees_[0]->BulkLoad(dataset);
  }
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
    std::vector<GtChildEntry> roots;
    if (sharded_ && partitioner_.routes_by_bounds()) {
      roots.reserve(trees_.size());
      for (const auto& tree : trees_) roots.push_back(tree->RootEntry());
    }
    GaussTree* tree =
        trees_[sharded_ ? partitioner_.Route(pfv, roots, options_.tree) : 0]
            .get();
    if (tree->store().finalized()) tree->Definalize();
    tree->Insert(pfv);
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

void GaussDb::Finalize() {
  GAUSS_CHECK_MSG(!trees_.empty(),
                  "Finalize after Serve(): build phase is over");
  for (const auto& tree : trees_) {
    if (!tree->store().finalized()) tree->Finalize();
  }
  if (sharded_) WriteManifest();
  for (FilePageDevice* device : file_devices_) device->Sync();
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
      std::move(sources), sharded_, partitioner_, dim_, options_.tree,
      file_devices_, options, options_.ingest);
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
