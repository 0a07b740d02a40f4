#include "api/upgrade.h"

#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <utility>

namespace gauss {

namespace {

// Page-0 shard manifest of a sharded single-file image (an unsharded one
// has its tree header there): this header, then one PageId per shard
// naming the shard tree's header page, then zeros. v2 added hash_seed, v3
// partition_kind; v1/v2 images and kind-0 v3 ones were cut by an id hash.
// Finalize() writes v3, kind spatial, seed 0.
constexpr uint64_t kManifestMagic = 0x47415553'53444231ull;  // "GAUSSDB1"
constexpr uint32_t kManifestVersion = 3;
constexpr uint32_t kHashKind = 0;
constexpr uint32_t kSpatialKind = 1;

struct ManifestLayout {
  uint64_t magic;
  uint32_t version;
  uint32_t page_size;  // the page size the database was created with
  uint32_t dim;
  uint32_t num_shards;
  uint64_t hash_seed;
  uint32_t partition_kind;
  uint32_t reserved;
};

// Where each manifest version's shard list starts: v1's header ended at
// num_shards, and padding put v2's hash_seed at offset 24.
size_t ShardListOffset(uint32_t version) {
  return version == 3   ? sizeof(ManifestLayout)
         : version == 2 ? offsetof(ManifestLayout, partition_kind)
                        : offsetof(ManifestLayout, hash_seed);
}

// Directory MANIFEST: `<tag> <version>`, then `key value` lines. Without
// `partition spatial` it is an id-hash image, which must name a hash_seed.
constexpr char kDirManifestTag[] = "gaussdb-directory";
constexpr uint32_t kDirManifestVersion = 1;
constexpr char kPartitionHash[] = "hash";
constexpr char kPartitionSpatial[] = "spatial";

// Tree header v2: same header layout as v3, row node pages.
constexpr uint32_t kRowPageTreeVersion = 2;

bool Fail(OpenError* error, OpenErrorCode code, std::string message) {
  *error = OpenError{code, std::move(message)};
  return false;
}

bool PageSizeMismatch(OpenError* error, const std::string& what,
                      uint64_t stored, uint32_t opened) {
  return Fail(error, OpenErrorCode::kPageSizeMismatch,
              what + ": page size mismatch: written with " +
                  std::to_string(stored) + ", opened with " +
                  std::to_string(opened));
}

// A manifest shard path stays inside the database directory: relative,
// without "..", and without "." (which would only alias a path the
// duplicate check catches). Symlinked shard *files* spread shards over
// mounts.
bool SafeRelativePath(const std::string& path) {
  const std::string wrapped = "/" + path + "/";
  return wrapped.find("//") == std::string::npos && path.front() != '/' &&
         wrapped.find("/./") == std::string::npos &&
         wrapped.find("/../") == std::string::npos;
}

// Reads and checks every tree header `image->metas` names: a Gauss-tree
// magic, header version 2 or 3, the device's page size, and the manifest's
// dim when it states one (else image->dim becomes the tree's).
bool ReadTreeHeaders(const std::string& path, StoredImage* image,
                     OpenError* error) {
  for (size_t s = 0; s < image->metas.size(); ++s) {
    const PageDevice& device = *image->devices[image->directory ? s : 0];
    const PageId meta = image->metas[s];
    const std::string what =
        image->sharded ? path + ": shard " + std::to_string(s) : path;
    GaussTree::HeaderInfo info;
    if (meta < device.PageCount()) {
      std::vector<uint8_t> page(device.page_size());
      device.Read(meta, page.data());
      info = GaussTree::InspectHeader(page.data(), page.size());
    }
    if (!info.valid_magic) {
      return Fail(error, image->sharded ? OpenErrorCode::kCorruptManifest
                                        : OpenErrorCode::kNotAGaussDb,
                  what + ": no Gauss-tree header at page " +
                      std::to_string(meta));
    }
    if (info.version != GaussTree::header_version() &&
        info.version != kRowPageTreeVersion) {
      return Fail(error, OpenErrorCode::kVersionMismatch,
                  what + ": Gauss-tree header version " +
                      std::to_string(info.version));
    }
    if (info.page_size != device.page_size()) {
      return PageSizeMismatch(error, what, info.page_size, device.page_size());
    }
    if (image->dim == 0) image->dim = info.dim;
    if (info.dim != image->dim) {
      return Fail(error, OpenErrorCode::kCorruptManifest,
                  what + ": tree dim " + std::to_string(info.dim) +
                      " disagrees with the manifest's");
    }
    if (info.version == kRowPageTreeVersion && image->outdated.empty()) {
      image->outdated = what + ": Gauss-tree header v2 (row node pages)";
    }
    image->headers.push_back(info);
  }
  return true;
}

// The unsigned decimal stored under `key`; false when absent or malformed.
bool Number(const std::map<std::string, std::string>& values, const char* key,
            uint64_t* out) {
  const auto it = values.find(key);
  if (it == values.end() || it->second.size() > 19 ||
      it->second.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  *out = std::stoull(it->second);  // 19 digits always fit
  return true;
}

}  // namespace

std::string ShardFileName(size_t shard) {
  char name[48];
  std::snprintf(name, sizeof(name), "shard-%04zu.gauss", shard);
  return name;
}

size_t ManifestBytes(size_t num_shards) {
  return sizeof(ManifestLayout) + num_shards * sizeof(PageId);
}

std::vector<uint8_t> ManifestPage(uint32_t page_size, size_t dim,
                                  const std::vector<PageId>& shard_metas) {
  ManifestLayout manifest;
  std::memset(&manifest, 0, sizeof(manifest));
  manifest.magic = kManifestMagic;
  manifest.version = kManifestVersion;
  manifest.page_size = page_size;
  manifest.dim = static_cast<uint32_t>(dim);
  manifest.num_shards = static_cast<uint32_t>(shard_metas.size());
  manifest.partition_kind = kSpatialKind;
  std::vector<uint8_t> page(page_size, 0);
  std::memcpy(page.data(), &manifest, sizeof(manifest));
  std::memcpy(page.data() + sizeof(manifest), shard_metas.data(),
              shard_metas.size() * sizeof(PageId));
  return page;
}

std::string DirectoryManifestText(uint32_t page_size, size_t dim,
                                  size_t num_shards) {
  std::ostringstream text;
  text << kDirManifestTag << ' ' << kDirManifestVersion << '\n'
       << "page_size " << page_size << '\n'
       << "dim " << dim << '\n'
       << "partition " << kPartitionSpatial << '\n'
       << "num_shards " << num_shards << '\n';
  for (size_t s = 0; s < num_shards; ++s) {
    text << "shard " << ShardFileName(s) << '\n';
  }
  return text.str();
}

bool ReadFileImage(const std::string& path, uint32_t page_size,
                   StoredImage* image, OpenError* error) {
  std::string device_error;
  auto device = FilePageDevice::TryOpen(path, page_size, &device_error);
  if (device == nullptr) {
    return Fail(error, OpenErrorCode::kIoError, device_error);
  }
  // No GaussDb header fits a page smaller than the manifest header.
  if (device->PageCount() == 0 || page_size < sizeof(ManifestLayout)) {
    return Fail(error, OpenErrorCode::kNotAGaussDb,
                path + ": empty file or tiny pages, not a finalized GaussDb");
  }
  std::vector<uint8_t> page(page_size);
  device->Read(0, page.data());
  ManifestLayout manifest;
  std::memcpy(&manifest, page.data(), sizeof(manifest));
  image->devices.push_back(std::move(device));
  image->sharded = manifest.magic == kManifestMagic;
  if (!image->sharded) {
    image->metas.push_back(0);  // unsharded: the tree header is page 0
    return ReadTreeHeaders(path, image, error);
  }
  if (manifest.version < 1 || manifest.version > kManifestVersion) {
    return Fail(error, OpenErrorCode::kVersionMismatch,
                path + ": GaussDb manifest version " +
                    std::to_string(manifest.version));
  }
  if (manifest.page_size != page_size) {
    return PageSizeMismatch(error, path, manifest.page_size, page_size);
  }
  const bool hashed =
      manifest.version < 3 || manifest.partition_kind == kHashKind;
  const size_t list = ShardListOffset(manifest.version);
  const size_t end = list + manifest.num_shards * sizeof(PageId);
  bool corrupt = (!hashed && manifest.partition_kind != kSpatialKind) ||
                 manifest.num_shards < 1 || manifest.num_shards > kMaxShards ||
                 end > page_size;
  if (!corrupt) {
    image->metas.resize(manifest.num_shards);
    std::memcpy(image->metas.data(), page.data() + list, end - list);
    // The writer zero-fills the page: a byte after the list means a damaged
    // shard count.
    corrupt = std::any_of(page.begin() + static_cast<std::ptrdiff_t>(end),
                          page.end(), [](uint8_t byte) { return byte != 0; }) ||
              std::set<PageId>(image->metas.begin(), image->metas.end())
                      .size() != image->metas.size();
  }
  if (corrupt) {
    return Fail(error, OpenErrorCode::kCorruptManifest,
                path + ": unknown partition kind, or a shard count or list "
                       "the page does not hold");
  }
  image->dim = manifest.dim;
  if (hashed) {
    image->outdated = path + ": GaussDb manifest v" +
                      std::to_string(manifest.version) + " of an id-hash image";
  }
  return ReadTreeHeaders(path, image, error);
}

bool ReadDirectoryImage(const std::string& path, uint32_t page_size,
                        StoredImage* image, OpenError* error) {
  const std::string manifest_path = path + "/" + kDirManifestName;
  std::ifstream in(manifest_path);
  if (!in.good()) {
    return Fail(error, OpenErrorCode::kIoError,
                manifest_path + ": " + std::strerror(errno));
  }
  std::string tag;
  uint32_t version = 0;
  if (!(in >> tag >> version) || tag != kDirManifestTag) {
    return Fail(error, OpenErrorCode::kNotAGaussDb,
                manifest_path + ": not a GaussDb directory manifest");
  }
  if (version != kDirManifestVersion) {
    return Fail(error, OpenErrorCode::kVersionMismatch,
                manifest_path + ": version " + std::to_string(version));
  }

  std::map<std::string, std::string> values;
  std::vector<std::string> shard_paths;
  std::string key, value;
  while (in >> key >> value) {
    if (key == "shard") {
      shard_paths.push_back(value);
    } else if ((key != "page_size" && key != "dim" && key != "hash_seed" &&
                key != "partition" && key != "num_shards") ||
               (key == "partition" && value != kPartitionHash &&
                value != kPartitionSpatial) ||
               !values.emplace(key, value).second) {
      return Fail(error, OpenErrorCode::kCorruptManifest,
                  manifest_path + ": unknown or repeated '" + key + " " +
                      value + "'");
    }
  }
  const bool hashed = values.emplace("partition", kPartitionHash).second ||
                      values["partition"] == kPartitionHash;
  uint64_t stored_page_size = 0, dim = 0, num_shards = 0, seed = 0;
  if (!Number(values, "page_size", &stored_page_size) ||
      !Number(values, "dim", &dim) ||
      !Number(values, "num_shards", &num_shards) ||
      (hashed && !Number(values, "hash_seed", &seed)) || dim == 0 ||
      dim > UINT32_MAX || num_shards < 1 || num_shards > kMaxShards) {
    return Fail(error, OpenErrorCode::kCorruptManifest,
                manifest_path + ": page_size, dim, num_shards or hash_seed "
                                "missing, malformed or out of range");
  }
  if (shard_paths.size() != num_shards) {
    return Fail(error, OpenErrorCode::kShardCountMismatch,
                manifest_path + ": manifest declares " +
                    std::to_string(num_shards) + " shards but lists " +
                    std::to_string(shard_paths.size()) + " shard files");
  }
  if (stored_page_size != page_size) {
    return PageSizeMismatch(error, manifest_path, stored_page_size, page_size);
  }

  image->sharded = image->directory = true;
  image->dim = static_cast<size_t>(dim);
  if (hashed) image->outdated = manifest_path + ": id-hash directory image";
  // Duplicate entries would alias two read-write shard devices onto one
  // file — reads would consult the same tree twice and a reopen-and-Insert
  // would interleave two trees' appends, corrupting it.
  std::set<std::string> listed;
  for (size_t s = 0; s < shard_paths.size(); ++s) {
    if (!SafeRelativePath(shard_paths[s]) ||
        !listed.insert(shard_paths[s]).second) {
      return Fail(error, OpenErrorCode::kCorruptManifest,
                  manifest_path + ": shard path '" + shard_paths[s] +
                      "' escapes the database directory or repeats");
    }
    std::string device_error;
    auto device = FilePageDevice::TryOpen(path + "/" + shard_paths[s],
                                          page_size, &device_error);
    if (device == nullptr) {
      return Fail(error, OpenErrorCode::kMissingShardFile,
                  "shard " + std::to_string(s) + ": " + device_error);
    }
    image->devices.push_back(std::move(device));
    image->metas.push_back(0);  // each shard file is a single-tree image
  }
  return ReadTreeHeaders(path, image, error);
}

const char* DecodeRowPage(const uint8_t* page, uint32_t page_size, size_t dim,
                          PageId id, GtNode* node) {
  constexpr size_t kRowHeaderBytes = 5;
  if (page_size < kRowHeaderBytes) return "page smaller than a node header";
  if (page[0] > 1) return "unknown node tag";
  const bool leaf = page[0] == 0;
  uint32_t n = 0;
  std::memcpy(&n, page + 1, sizeof(n));
  const size_t record = leaf ? sizeof(uint64_t) + 2 * dim * sizeof(double)
                             : 2 * sizeof(uint32_t) + 4 * dim * sizeof(double);
  if (n > (page_size - kRowHeaderBytes) / record) {
    return "entry count exceeds the page";
  }
  *node = GtNode{id, leaf ? GtNodeKind::kLeaf : GtNodeKind::kInner, {}, {}};
  const uint8_t* p = page + kRowHeaderBytes;
  const auto take = [&p](void* to, size_t bytes) {
    std::memcpy(to, p, bytes);
    p += bytes;
  };
  for (uint32_t r = 0; r < n; ++r) {
    if (leaf) {
      Pfv& pfv = node->pfvs.emplace_back();
      pfv.mu.resize(dim);
      pfv.sigma.resize(dim);
      take(&pfv.id, sizeof(pfv.id));
      take(pfv.mu.data(), dim * sizeof(double));
      take(pfv.sigma.data(), dim * sizeof(double));
      continue;
    }
    GtChildEntry& entry = node->children.emplace_back();
    take(&entry.child, sizeof(entry.child));
    take(&entry.count, sizeof(entry.count));
    entry.bounds.resize(dim);
    for (DimBounds& b : entry.bounds) {
      for (double* field : {&b.mu_lo, &b.mu_hi, &b.sigma_lo, &b.sigma_hi}) {
        take(field, sizeof(double));
      }
    }
  }
  return nullptr;
}

OpenResult GaussDb::Upgrade(const std::string& from, const std::string& to,
                            GaussDbOptions options) {
  struct stat input, output;
  if (::stat(from.c_str(), &input) != 0 ||
      (::stat(to.c_str(), &output) == 0 && output.st_dev == input.st_dev &&
       output.st_ino == input.st_ino)) {
    return OpenError{OpenErrorCode::kIoError,
                     from + ": unreadable, or the very image `to` names"};
  }
  StoredImage image;
  OpenError error;
  const bool directory = S_ISDIR(input.st_mode);
  if (!(directory ? ReadDirectoryImage(from, options.page_size, &image, &error)
                  : ReadFileImage(from, options.page_size, &image, &error))) {
    return error;
  }

  // Every object of every shard tree, walked from its root as Open does:
  // each page reached once, v3 pages checksummed, row pages decoded.
  std::vector<Pfv> objects;
  std::vector<uint8_t> page(options.page_size);
  for (size_t s = 0; s < image.metas.size(); ++s) {
    const GaussTree::HeaderInfo& header = image.headers[s];
    const PageDevice& device = *image.devices[directory ? s : 0];
    const auto corrupt = [&](const std::string& why) {
      return OpenError{OpenErrorCode::kCorruptPage,
                       from + ": shard " + std::to_string(s) + ": " + why};
    };
    if (header.malformed != nullptr) return corrupt(header.malformed);
    const bool rows = header.version == kRowPageTreeVersion;
    std::vector<bool> seen(device.PageCount(), false);
    std::deque<PageId> queue{header.root};
    const size_t first = objects.size();
    while (!queue.empty()) {
      const PageId id = queue.front();
      queue.pop_front();
      GtNode node;
      const char* why = "beyond the device or reached twice";
      if (id < seen.size() && !seen[id]) {
        seen[id] = true;
        device.Read(id, page.data());
        why = rows ? DecodeRowPage(page.data(), options.page_size, image.dim,
                                   id, &node)
                   : GtNodeSoa::Validate(page.data(), options.page_size,
                                         image.dim, /*check_crc=*/true);
        if (why == nullptr && !rows) {
          node = GtNode::Deserialize(page.data(), image.dim, id);
        }
      }
      for (Pfv& pfv : node.pfvs) {
        if (why == nullptr && !pfv.Valid()) why = "invalid pfv";
        objects.push_back(std::move(pfv));
      }
      if (why != nullptr) {
        return corrupt("node page " + std::to_string(id) + ": " + why);
      }
      for (const GtChildEntry& e : node.children) queue.push_back(e.child);
    }
    if (objects.size() - first != header.size) {
      return corrupt("the leaves disagree with the header's object count");
    }
  }

  // Id order makes the new image a function of the gallery alone, however
  // the old image had cut and laid it out.
  std::stable_sort(objects.begin(), objects.end(),
                   [](const Pfv& a, const Pfv& b) { return a.id < b.id; });
  PfvDataset dataset(image.dim);
  for (Pfv& pfv : objects) dataset.Add(std::move(pfv));
  options.tree = image.headers[0].options;
  options.shards.num_shards = image.sharded ? image.metas.size() : 0;
  GaussDb db = directory ? CreateOnDirectory(to, image.dim, options)
                         : CreateOnFile(to, image.dim, options);
  db.Build(dataset);
  return db;
}

}  // namespace gauss
