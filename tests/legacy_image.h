#ifndef GAUSS_TESTS_LEGACY_IMAGE_H_
#define GAUSS_TESTS_LEGACY_IMAGE_H_

// Forges images in the formats earlier builds wrote, from images the
// current build wrote: node pages of tree header version 2 (row records
// behind a 5-byte [u8 kind][u32 n] header, no checksum), page-0 shard
// manifests v1-v3 of id-hash images, and a directory MANIFEST without the
// `partition` key (api/upgrade.h describes all of them). The library only
// reads these formats, in GaussDb::Upgrade, so the writers live here,
// beside the tests and benches that need old images.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <deque>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "gausstree/node.h"
#include "storage/page_device.h"

namespace gauss::test {

// Field offsets of the Gauss-tree header page (MetaPageLayout in
// gausstree/gauss_tree.cc) and of the GaussDb shard manifest at page 0 of a
// sharded single-file image (ManifestLayout in api/gauss_db.cc, version 3).
inline constexpr size_t kTreeVersionOffset = 8;
inline constexpr size_t kTreeDimOffset = 12;
inline constexpr size_t kTreeRootOffset = 24;
inline constexpr uint64_t kManifestMagic = 0x47415553'53444231ull;
inline constexpr size_t kManifestVersionOffset = 8;
inline constexpr size_t kManifestShardsOffset = 20;
inline constexpr size_t kManifestMetasOffset = 40;

template <typename T>
T ReadField(const std::vector<uint8_t>& page, size_t offset) {
  T value;
  std::memcpy(&value, page.data() + offset, sizeof(T));
  return value;
}

// Writes `node` into the zeroed `page` in the legacy row format.
inline void SerializeLegacy(const GtNode& node, size_t dim, uint8_t* page) {
  uint8_t* p = page;
  const auto put = [&p](const void* value, size_t bytes) {
    std::memcpy(p, value, bytes);
    p += bytes;
  };
  const uint8_t kind = static_cast<uint8_t>(node.kind);
  const uint32_t n = static_cast<uint32_t>(node.EntryCount());
  put(&kind, sizeof(kind));
  put(&n, sizeof(n));
  for (const Pfv& pfv : node.pfvs) {
    put(&pfv.id, sizeof(pfv.id));
    put(pfv.mu.data(), dim * sizeof(double));
    put(pfv.sigma.data(), dim * sizeof(double));
  }
  for (const GtChildEntry& e : node.children) {
    put(&e.child, sizeof(e.child));
    put(&e.count, sizeof(e.count));
    for (size_t i = 0; i < dim; ++i) {
      put(&e.bounds[i].mu_lo, sizeof(double));
      put(&e.bounds[i].mu_hi, sizeof(double));
      put(&e.bounds[i].sigma_lo, sizeof(double));
      put(&e.bounds[i].sigma_hi, sizeof(double));
    }
  }
}

// Every node page of the finalized tree whose header is `meta_page`, in
// breadth-first order from the root.
inline std::vector<PageId> TreeNodePages(const PageDevice& device,
                                         PageId meta_page) {
  std::vector<uint8_t> page(device.page_size());
  device.Read(meta_page, page.data());
  const size_t dim = ReadField<uint32_t>(page, kTreeDimOffset);
  std::vector<PageId> pages;
  std::deque<PageId> queue{ReadField<PageId>(page, kTreeRootOffset)};
  while (!queue.empty()) {
    pages.push_back(queue.front());
    queue.pop_front();
    device.Read(pages.back(), page.data());
    const GtNode node = GtNode::Deserialize(page.data(), dim, pages.back());
    for (const GtChildEntry& e : node.children) queue.push_back(e.child);
  }
  return pages;
}

// Rewrites the finalized tree whose header is `meta_page` as a version-2
// image: every node page in the legacy row format (zero tail, exactly what
// a pre-v3 Finalize wrote) and the header's version field set to 2.
inline void ForgeLegacyTree(PageDevice* device, PageId meta_page) {
  std::vector<uint8_t> page(device->page_size());
  device->Read(meta_page, page.data());
  const size_t dim = ReadField<uint32_t>(page, kTreeDimOffset);
  const uint32_t version = 2;
  std::memcpy(page.data() + kTreeVersionOffset, &version, sizeof(version));
  device->Write(meta_page, page.data());
  for (const PageId id : TreeNodePages(*device, meta_page)) {
    device->Read(id, page.data());
    const GtNode node = GtNode::Deserialize(page.data(), dim, id);
    std::fill(page.begin(), page.end(), 0);
    SerializeLegacy(node, dim, page.data());
    device->Write(id, page.data());
  }
}

// The tree header pages of a GaussDb single-device image: the manifest's
// shard list when page 0 holds one, else page 0 itself.
inline std::vector<PageId> TreeHeaderPages(const PageDevice& device) {
  std::vector<uint8_t> page(device.page_size());
  device.Read(0, page.data());
  if (ReadField<uint64_t>(page, 0) != kManifestMagic) return {0};
  std::vector<PageId> metas(ReadField<uint32_t>(page, kManifestShardsOffset));
  std::memcpy(metas.data(), page.data() + kManifestMetasOffset,
              metas.size() * sizeof(PageId));
  return metas;
}

// Forges every tree of a GaussDb single-device image (ForgeLegacyTree).
inline void ForgeLegacyImage(PageDevice* device) {
  for (const PageId meta : TreeHeaderPages(*device)) {
    ForgeLegacyTree(device, meta);
  }
}

// Rewrites the page-0 manifest of a sharded single-device image as the
// manifest `version` (1-3) of an id-hash image routed with `seed`: v1 ends
// at num_shards (shard list at byte 24), v2 adds the u64 seed (list at 32),
// v3 adds partition kind 0 = hash and a reserved u32 (list at 40). The
// page is zero after the list, as every writer left it.
inline void ForgeHashManifest(PageDevice* device, uint32_t version,
                              uint64_t seed) {
  const std::vector<PageId> metas = TreeHeaderPages(*device);
  std::vector<uint8_t> page(device->page_size());
  device->Read(0, page.data());
  std::fill(page.begin() + 24, page.end(), 0);
  std::memcpy(page.data() + kManifestVersionOffset, &version,
              sizeof(version));
  size_t list = 24;
  if (version >= 2) {
    std::memcpy(page.data() + 24, &seed, sizeof(seed));
    list = version == 2 ? 32 : kManifestMetasOffset;
  }
  std::memcpy(page.data() + list, metas.data(), metas.size() * sizeof(PageId));
  device->Write(0, page.data());
}

// Rewrites `<dir>/MANIFEST` the way it was written before the `partition`
// key existed: no `partition` line, a `hash_seed` line after `dim`.
inline void ForgeHashDirectoryManifest(const std::string& dir, uint64_t seed) {
  const std::string path = dir + "/MANIFEST";
  std::ifstream in(path);
  std::ostringstream out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("partition ", 0) == 0) continue;
    out << line << '\n';
    if (line.rfind("dim ", 0) == 0) out << "hash_seed " << seed << '\n';
  }
  in.close();
  std::ofstream(path, std::ios::trunc) << out.str();
}

}  // namespace gauss::test

#endif  // GAUSS_TESTS_LEGACY_IMAGE_H_
