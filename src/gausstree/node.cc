#include "gausstree/node.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "common/macros.h"
#include "storage/crc32c.h"

namespace gauss {

// Page formats: see the GtNodeSoa comment in node.h.
namespace {

constexpr size_t kHeaderBytes = 8;  // [u8 tag][u8 0][u16 n][u32 crc]
constexpr uint8_t kLeafTag = 2;
constexpr uint8_t kInnerTag = 3;
// n is a u16; capacities are clamped so no node can overflow it.
constexpr size_t kMaxEntries = 0xFFFF;

size_t LeafRecordBytes(size_t dim) {
  return sizeof(uint64_t) + 2 * dim * sizeof(double);
}

size_t InnerEntryBytes(size_t dim) {
  return 2 * sizeof(uint32_t) + 4 * dim * sizeof(double);
}

// v3 body bytes: the record sizes above, regrouped into planes.
size_t BodyBytes(GtNodeKind kind, size_t n, size_t dim) {
  return n * (kind == GtNodeKind::kLeaf ? LeafRecordBytes(dim)
                                        : InnerEntryBytes(dim));
}

// The page checksum: header bytes 0-3 (tag, reserved, n), then the body.
uint32_t PageCrc(const uint8_t* page, size_t body_bytes) {
  return Crc32c(page + kHeaderBytes, body_bytes, Crc32c(page, 4));
}

template <typename T>
void Put(uint8_t** p, const T& value) {
  std::memcpy(*p, &value, sizeof(T));
  *p += sizeof(T);
}

template <typename T>
T Peek(const uint8_t* p) {
  T value;
  std::memcpy(&value, p, sizeof(T));
  return value;
}

// Writes the v3 body of `node` (ids or child/count columns, then planes).
void WriteBody(const GtNode& node, size_t dim, uint8_t* body) {
  uint8_t* p = body;
  if (node.leaf()) {
    for (const Pfv& pfv : node.pfvs) Put<uint64_t>(&p, pfv.id);
    for (size_t i = 0; i < dim; ++i) {
      for (const Pfv& pfv : node.pfvs) Put<double>(&p, pfv.mu[i]);
    }
    for (size_t i = 0; i < dim; ++i) {
      for (const Pfv& pfv : node.pfvs) Put<double>(&p, pfv.sigma[i]);
    }
    return;
  }
  for (const GtChildEntry& e : node.children) Put<uint32_t>(&p, e.child);
  for (const GtChildEntry& e : node.children) Put<uint32_t>(&p, e.count);
  for (double DimBounds::*field : {&DimBounds::mu_lo, &DimBounds::mu_hi,
                                   &DimBounds::sigma_lo, &DimBounds::sigma_hi}) {
    for (size_t i = 0; i < dim; ++i) {
      for (const GtChildEntry& e : node.children) {
        Put<double>(&p, e.bounds[i].*field);
      }
    }
  }
}

// Points `out` at a v3 body of n entries.
void Bind(const uint8_t* body, GtNodeKind kind, PageId id, size_t n,
          size_t dim, GtNodeSoa* out) {
  out->id = id;
  out->kind = kind;
  out->n = n;
  out->dim = dim;
  out->stride = n;
  if (kind == GtNodeKind::kLeaf) {
    out->ids = reinterpret_cast<const uint64_t*>(body);
    out->children = nullptr;
    out->counts = nullptr;
  } else {
    out->ids = nullptr;
    out->children = reinterpret_cast<const PageId*>(body);
    out->counts = reinterpret_cast<const uint32_t*>(body) + n;
  }
  out->planes = reinterpret_cast<const double*>(body + n * sizeof(uint64_t));
}

}  // namespace

void GtChildEntry::Merge(const GtChildEntry& other) {
  GAUSS_DCHECK(bounds.size() == other.bounds.size());
  for (size_t i = 0; i < bounds.size(); ++i) {
    bounds[i].mu_lo = std::min(bounds[i].mu_lo, other.bounds[i].mu_lo);
    bounds[i].mu_hi = std::max(bounds[i].mu_hi, other.bounds[i].mu_hi);
    bounds[i].sigma_lo = std::min(bounds[i].sigma_lo, other.bounds[i].sigma_lo);
    bounds[i].sigma_hi = std::max(bounds[i].sigma_hi, other.bounds[i].sigma_hi);
  }
  count += other.count;
}

void GtChildEntry::Include(const Pfv& pfv) {
  GAUSS_DCHECK(bounds.size() == pfv.dim());
  for (size_t i = 0; i < bounds.size(); ++i) {
    bounds[i].mu_lo = std::min(bounds[i].mu_lo, pfv.mu[i]);
    bounds[i].mu_hi = std::max(bounds[i].mu_hi, pfv.mu[i]);
    bounds[i].sigma_lo = std::min(bounds[i].sigma_lo, pfv.sigma[i]);
    bounds[i].sigma_hi = std::max(bounds[i].sigma_hi, pfv.sigma[i]);
  }
}

bool GtChildEntry::Contains(const Pfv& pfv) const {
  GAUSS_DCHECK(bounds.size() == pfv.dim());
  for (size_t i = 0; i < bounds.size(); ++i) {
    if (!bounds[i].Contains(pfv.mu[i], pfv.sigma[i])) return false;
  }
  return true;
}

uint32_t GtNode::SubtreeCount() const {
  if (leaf()) return static_cast<uint32_t>(pfvs.size());
  uint32_t total = 0;
  for (const GtChildEntry& e : children) total += e.count;
  return total;
}

std::vector<DimBounds> GtNode::ComputeBounds(size_t dim) const {
  std::vector<DimBounds> bounds(dim);
  for (DimBounds& b : bounds) {
    b.mu_lo = std::numeric_limits<double>::infinity();
    b.mu_hi = -std::numeric_limits<double>::infinity();
    b.sigma_lo = std::numeric_limits<double>::infinity();
    b.sigma_hi = -std::numeric_limits<double>::infinity();
  }
  if (leaf()) {
    for (const Pfv& pfv : pfvs) {
      GAUSS_DCHECK(pfv.dim() == dim);
      for (size_t i = 0; i < dim; ++i) {
        bounds[i].mu_lo = std::min(bounds[i].mu_lo, pfv.mu[i]);
        bounds[i].mu_hi = std::max(bounds[i].mu_hi, pfv.mu[i]);
        bounds[i].sigma_lo = std::min(bounds[i].sigma_lo, pfv.sigma[i]);
        bounds[i].sigma_hi = std::max(bounds[i].sigma_hi, pfv.sigma[i]);
      }
    }
  } else {
    for (const GtChildEntry& e : children) {
      GAUSS_DCHECK(e.bounds.size() == dim);
      for (size_t i = 0; i < dim; ++i) {
        bounds[i].mu_lo = std::min(bounds[i].mu_lo, e.bounds[i].mu_lo);
        bounds[i].mu_hi = std::max(bounds[i].mu_hi, e.bounds[i].mu_hi);
        bounds[i].sigma_lo = std::min(bounds[i].sigma_lo, e.bounds[i].sigma_lo);
        bounds[i].sigma_hi = std::max(bounds[i].sigma_hi, e.bounds[i].sigma_hi);
      }
    }
  }
  return bounds;
}

size_t GtNode::SerializedSize(size_t dim) const {
  return kHeaderBytes + BodyBytes(kind, EntryCount(), dim);
}

void GtNode::Serialize(uint8_t* page, size_t dim) const {
  const size_t n = EntryCount();
  GAUSS_CHECK_MSG(n <= kMaxEntries, "node exceeds the page format's n");
  uint8_t* p = page;
  Put<uint8_t>(&p, leaf() ? kLeafTag : kInnerTag);
  Put<uint8_t>(&p, 0);
  Put<uint16_t>(&p, static_cast<uint16_t>(n));
  WriteBody(*this, dim, page + kHeaderBytes);
  const uint32_t crc = PageCrc(page, BodyBytes(kind, n, dim));
  std::memcpy(page + 4, &crc, sizeof(crc));
}

GtNode GtNode::Deserialize(const uint8_t* page, size_t dim, PageId id) {
  GtNodeSoa view;
  GtNodeSoa::Decode(page, dim, id, &view);
  return view.ToNode();
}

const char* GtNodeSoa::Validate(const uint8_t* page, uint32_t page_size,
                                size_t dim, bool check_crc) {
  if (page_size < kHeaderBytes) return "page smaller than a node header";
  const uint8_t tag = page[0];
  if (tag != kLeafTag && tag != kInnerTag) return "unknown node tag";
  if (page[1] != 0) return "nonzero reserved header byte";
  const auto kind = tag == kLeafTag ? GtNodeKind::kLeaf : GtNodeKind::kInner;
  const size_t body = BodyBytes(kind, Peek<uint16_t>(page + 2), dim);
  if (body > page_size - kHeaderBytes) return "entry count exceeds the page";
  if (check_crc && PageCrc(page, body) != Peek<uint32_t>(page + 4)) {
    return "checksum mismatch";
  }
  return nullptr;
}

void GtNodeSoa::Decode(const uint8_t* page, size_t dim, PageId id,
                       GtNodeSoa* out) {
  out->page.Release();
  Bind(page + kHeaderBytes,
       page[0] == kLeafTag ? GtNodeKind::kLeaf : GtNodeKind::kInner, id,
       Peek<uint16_t>(page + 2), dim, out);
}

void GtNodeSoa::FromNode(const GtNode& node, size_t dim, GtNodeSoa* out) {
  out->page.Release();
  const size_t n = node.EntryCount();
  out->owned.resize(BodyBytes(node.kind, n, dim) / sizeof(uint64_t));
  uint8_t* body = reinterpret_cast<uint8_t*>(out->owned.data());
  WriteBody(node, dim, body);
  Bind(body, node.kind, node.id, n, dim, out);
}

void GtNodeSoa::Alias(const GtNodeSoa& other) {
  page.Release();
  id = other.id;
  kind = other.kind;
  n = other.n;
  dim = other.dim;
  stride = other.stride;
  ids = other.ids;
  children = other.children;
  counts = other.counts;
  planes = other.planes;
}

GtNode GtNodeSoa::ToNode() const {
  GtNode node;
  node.id = id;
  node.kind = kind;
  if (leaf()) {
    node.pfvs.resize(n);
    for (size_t r = 0; r < n; ++r) {
      Pfv& pfv = node.pfvs[r];
      pfv.id = ids[r];
      pfv.mu.resize(dim);
      pfv.sigma.resize(dim);
      for (size_t i = 0; i < dim; ++i) {
        pfv.mu[i] = mu()[i * stride + r];
        pfv.sigma[i] = sigma()[i * stride + r];
      }
    }
    return node;
  }
  node.children.resize(n);
  for (size_t r = 0; r < n; ++r) {
    GtChildEntry& e = node.children[r];
    e.child = children[r];
    e.count = counts[r];
    e.bounds.resize(dim);
    for (size_t i = 0; i < dim; ++i) {
      e.bounds[i].mu_lo = mu_lo()[i * stride + r];
      e.bounds[i].mu_hi = mu_hi()[i * stride + r];
      e.bounds[i].sigma_lo = sigma_lo()[i * stride + r];
      e.bounds[i].sigma_hi = sigma_hi()[i * stride + r];
    }
  }
  return node;
}

bool GtCapacities::Fits(uint32_t page_size, size_t dim) {
  // An inner entry is the larger record.
  return dim > 0 && page_size >= kHeaderBytes + 2 * InnerEntryBytes(dim);
}

GtCapacities GtCapacities::ForPageSize(uint32_t page_size, size_t dim) {
  GAUSS_CHECK_MSG(Fits(page_size, dim),
                  "page too small for this dimensionality");
  GtCapacities caps;
  const size_t payload = page_size - kHeaderBytes;
  caps.leaf = std::min(kMaxEntries, payload / LeafRecordBytes(dim));
  caps.inner = std::min(kMaxEntries, payload / InnerEntryBytes(dim));
  caps.leaf_min = std::max<size_t>(1, caps.leaf / 2);
  caps.inner_min = std::max<size_t>(1, caps.inner / 2);
  return caps;
}

}  // namespace gauss
