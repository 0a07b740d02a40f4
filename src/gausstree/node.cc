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

// The header of a node page of n entries, with its checksum over the body
// already written behind it; returns the page's byte count.
size_t FinishPage(uint8_t* page, uint8_t tag, GtNodeKind kind, size_t n,
                  size_t dim) {
  uint8_t* p = page;
  Put<uint8_t>(&p, tag);
  Put<uint8_t>(&p, 0);
  Put<uint16_t>(&p, static_cast<uint16_t>(n));
  const size_t body = BodyBytes(kind, n, dim);
  const uint32_t crc = PageCrc(page, body);
  std::memcpy(page + 4, &crc, sizeof(crc));
  return kHeaderBytes + body;
}

constexpr double kInf = std::numeric_limits<double>::infinity();

// The MBR fold: widens [*lo, *hi] along one axis to cover an entry's edges
// [elo, ehi], the running edge as std::min/std::max's first operand (which
// decides the survivor of a signed zero or a NaN). GtChildEntry's Merge
// and Include, and with them GtNode::ComputeBounds, and the page writers
// all fold through it.
void Widen(double elo, double ehi, double* lo, double* hi) {
  *lo = std::min(*lo, elo);
  *hi = std::max(*hi, ehi);
}

// A pfv as a leaf object of the page writers.
GtLeafObject ObjectOf(const Pfv& pfv, [[maybe_unused]] size_t dim) {
  GAUSS_DCHECK(pfv.dim() == dim);
  return {pfv.id, pfv.mu.data(), pfv.sigma.data(), 1};
}

// A child entry as a child of the page writers, its MBR copied to `row`:
// 2d lower edges, then 2d upper edges.
GtChildRef ChildOf(const GtChildEntry& e, size_t dim, double* row) {
  GAUSS_DCHECK(e.bounds.size() == dim);
  double* lo = row;
  double* hi = row + 2 * dim;
  for (size_t i = 0; i < dim; ++i) {
    lo[i] = e.bounds[i].mu_lo;
    lo[dim + i] = e.bounds[i].sigma_lo;
    hi[i] = e.bounds[i].mu_hi;
    hi[dim + i] = e.bounds[i].sigma_hi;
  }
  return {e.child, e.count, lo, hi};
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
    const DimBounds& o = other.bounds[i];
    Widen(o.mu_lo, o.mu_hi, &bounds[i].mu_lo, &bounds[i].mu_hi);
    Widen(o.sigma_lo, o.sigma_hi, &bounds[i].sigma_lo, &bounds[i].sigma_hi);
  }
  count += other.count;
}

void GtChildEntry::Include(const Pfv& pfv) {
  GAUSS_DCHECK(bounds.size() == pfv.dim());
  for (size_t i = 0; i < bounds.size(); ++i) {
    Widen(pfv.mu[i], pfv.mu[i], &bounds[i].mu_lo, &bounds[i].mu_hi);
    Widen(pfv.sigma[i], pfv.sigma[i], &bounds[i].sigma_lo,
          &bounds[i].sigma_hi);
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
  GtChildEntry mbr;
  mbr.bounds.assign(dim, DimBounds{kInf, -kInf, kInf, -kInf});
  for (const Pfv& pfv : pfvs) mbr.Include(pfv);
  for (const GtChildEntry& e : children) mbr.Merge(e);
  return std::move(mbr.bounds);
}

size_t GtNode::SerializedSize(size_t dim) const {
  return kHeaderBytes + BodyBytes(kind, EntryCount(), dim);
}

void GtNode::Serialize(uint8_t* page, size_t dim) const {
  std::vector<double> mbr(4 * dim);  // written by the writers, unused here
  if (leaf()) {
    std::vector<GtLeafObject> objects;
    objects.reserve(pfvs.size());
    for (const Pfv& pfv : pfvs) objects.push_back(ObjectOf(pfv, dim));
    WriteLeafPage(objects.data(), objects.size(), dim, page, mbr.data(),
                  mbr.data() + 2 * dim);
    return;
  }
  std::vector<double> rows(children.size() * 4 * dim);
  std::vector<GtChildRef> refs;
  refs.reserve(children.size());
  for (size_t r = 0; r < children.size(); ++r) {
    refs.push_back(ChildOf(children[r], dim, rows.data() + r * 4 * dim));
  }
  WriteInnerPage(refs.data(), refs.size(), dim, page, mbr.data(),
                 mbr.data() + 2 * dim);
}

size_t WriteLeafPage(const GtLeafObject* objects, size_t n, size_t dim,
                     uint8_t* page, double* lo, double* hi) {
  GAUSS_CHECK_MSG(n <= kMaxEntries, "node exceeds the page format's n");
  // Object by object: each object's values are read once, in place, and
  // scattered into the planes of a page that sits in the L1 cache, while
  // the 2d edges fold side by side.
  uint8_t* body = page + kHeaderBytes;
  double* planes = reinterpret_cast<double*>(body + n * sizeof(uint64_t));
  std::fill(lo, lo + 2 * dim, kInf);
  std::fill(hi, hi + 2 * dim, -kInf);
  for (size_t r = 0; r < n; ++r) {
    const GtLeafObject& o = objects[r];
    std::memcpy(body + r * sizeof(uint64_t), &o.id, sizeof(uint64_t));
    for (size_t a = 0; a < 2 * dim; ++a) {
      const double v =
          a < dim ? o.mu[a * o.stride] : o.sigma[(a - dim) * o.stride];
      std::memcpy(planes + a * n + r, &v, sizeof(double));
      Widen(v, v, lo + a, hi + a);
    }
  }
  return FinishPage(page, kLeafTag, GtNodeKind::kLeaf, n, dim);
}

size_t WriteInnerPage(const GtChildRef* children, size_t n, size_t dim,
                      uint8_t* page, double* lo, double* hi) {
  GAUSS_CHECK_MSG(n <= kMaxEntries, "node exceeds the page format's n");
  // The plane groups are mu_lo, mu_hi, sigma_lo, sigma_hi: axis a's lower
  // edges go to plane a (a mu axis) or a + d (a sigma axis), its upper
  // edges d planes further on.
  uint8_t* body = page + kHeaderBytes;
  double* planes = reinterpret_cast<double*>(body + n * sizeof(uint64_t));
  std::fill(lo, lo + 2 * dim, kInf);
  std::fill(hi, hi + 2 * dim, -kInf);
  for (size_t r = 0; r < n; ++r) {
    const GtChildRef& c = children[r];
    std::memcpy(body + r * sizeof(uint32_t), &c.child, sizeof(uint32_t));
    std::memcpy(body + (n + r) * sizeof(uint32_t), &c.count,
                sizeof(uint32_t));
    for (size_t a = 0; a < 2 * dim; ++a) {
      double* plane_lo = planes + (a < dim ? a : a + dim) * n;
      std::memcpy(plane_lo + r, c.lo + a, sizeof(double));
      std::memcpy(plane_lo + dim * n + r, c.hi + a, sizeof(double));
      Widen(c.lo[a], c.hi[a], lo + a, hi + a);
    }
  }
  return FinishPage(page, kInnerTag, GtNodeKind::kInner, n, dim);
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
