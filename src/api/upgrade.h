#ifndef GAUSS_API_UPGRADE_H_
#define GAUSS_API_UPGRADE_H_

// The persistent formats of a GaussDb image, written down once: the page-0
// shard manifest (versions 1-3), the directory MANIFEST (with and without
// its `partition` key) and the row node pages of Gauss-tree header v2.
// Open*() reads headers through ReadFileImage/ReadDirectoryImage and
// serves only what Finalize() writes today — v3 trees under a v3 spatial
// manifest, if any — refusing the rest with kNeedsUpgrade; Upgrade() reads
// them all and writes the gallery anew.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "api/gauss_db.h"
#include "gausstree/gauss_tree.h"
#include "gausstree/node.h"
#include "storage/page.h"
#include "storage/page_device.h"

namespace gauss {

inline constexpr size_t kMaxShards = 64;  // of every layout
inline constexpr char kDirManifestName[] = "MANIFEST";
std::string ShardFileName(size_t shard);  // a directory image's shard file

// What Finalize() writes: the page-0 manifest of a sharded single file
// (ManifestBytes of it used) and a directory image's MANIFEST text.
size_t ManifestBytes(size_t num_shards);
std::vector<uint8_t> ManifestPage(uint32_t page_size, size_t dim,
                                  const std::vector<PageId>& shard_metas);
std::string DirectoryManifestText(uint32_t page_size, size_t dim,
                                  size_t num_shards);

// A GaussDb image as its headers describe it, devices open.
struct StoredImage {
  bool sharded = false;
  bool directory = false;  // one device per shard
  size_t dim = 0;
  std::vector<std::unique_ptr<FilePageDevice>> devices;
  // Per shard: its tree header page (on devices[s] when directory, else
  // devices[0]) and what the header says.
  std::vector<PageId> metas;
  std::vector<GaussTree::HeaderInfo> headers;
  // Which header predates the current format first; empty when none does.
  std::string outdated;
};

// Reads the manifest, if any, and every tree header of the single-file or
// directory image at `path`, its devices opened with `page_size`. Accepts
// every format ever written (see `outdated`); anything else — a missing or
// foreign file, an unknown version, another page size, an inconsistent
// manifest — is a typed error. Node pages are not read.
bool ReadFileImage(const std::string& path, uint32_t page_size,
                   StoredImage* image, OpenError* error);
bool ReadDirectoryImage(const std::string& path, uint32_t page_size,
                        StoredImage* image, OpenError* error);

// Decodes a node page of a tree header v2 into `*node`: [u8 kind][u32 n],
// then per entry [u64 id][dim x mu][dim x sigma] (kind 0, leaf) or [u32
// child][u32 count][dim x (mu_lo, mu_hi, sigma_lo, sigma_hi)] (kind 1), no
// checksum. Returns why the page is no such page, or nullptr.
const char* DecodeRowPage(const uint8_t* page, uint32_t page_size, size_t dim,
                          PageId id, GtNode* node);

}  // namespace gauss

#endif  // GAUSS_API_UPGRADE_H_
