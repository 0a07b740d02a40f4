#include "gausstree/node_store.h"

#include <algorithm>
#include <cstring>
#include <deque>
#include <vector>

#include "common/macros.h"

namespace gauss {

GtNodeStore::GtNodeStore(PageCache* pool, size_t dim)
    : pool_(pool), dim_(dim) {
  GAUSS_CHECK(pool != nullptr);
  GAUSS_CHECK(dim > 0);
}

GtNode* GtNodeStore::Create(GtNodeKind kind) {
  GAUSS_CHECK_MSG(!finalized_, "Create requires build mode (Definalize first)");
  const PageId id = pool_->device()->Allocate();
  auto node = std::make_unique<GtNode>();
  node->id = id;
  node->kind = kind;
  GtNode* raw = node.get();
  nodes_.emplace(id, std::move(node));
  all_pages_.push_back(id);
  return raw;
}

GtNode* GtNodeStore::GetMutable(PageId id) {
  GAUSS_CHECK_MSG(!finalized_, "mutation requires build mode");
  auto it = nodes_.find(id);
  if (it == nodes_.end()) {
    auto node = std::make_unique<GtNode>();
    Load(id, node.get());
    it = nodes_.emplace(id, std::move(node)).first;
  }
  return it->second.get();
}

std::vector<PageId> GtNodeStore::AllocatePages(size_t count) {
  GAUSS_CHECK_MSG(!finalized_, "AllocatePages requires build mode");
  std::vector<PageId> ids(count);
  for (PageId& id : ids) id = pool_->device()->Allocate();
  all_pages_.insert(all_pages_.end(), ids.begin(), ids.end());
  return ids;
}

void GtNodeStore::WritePage(PageId id, const uint8_t* bytes) const {
  GAUSS_CHECK_MSG(!finalized_, "WritePage requires build mode");
  pool_->device()->Write(id, bytes);
}

void GtNodeStore::DropNode(PageId id) {
  GAUSS_CHECK_MSG(!finalized_, "DropNode requires build mode");
  nodes_.erase(id);
}

void GtNodeStore::WriteNode(const GtNode& node,
                            std::vector<uint8_t>* buffer) const {
  GAUSS_CHECK_MSG(node.SerializedSize(dim_) <= buffer->size(),
                  "node exceeds page capacity");
  std::fill(buffer->begin(), buffer->end(), 0);
  node.Serialize(buffer->data(), dim_);
  pool_->device()->Write(node.id, buffer->data());
}

void GtNodeStore::Load(PageId id, GtNode* scratch) const {
  if (!finalized_) {
    auto it = nodes_.find(id);
    if (it != nodes_.end()) {
      *scratch = *it->second;  // copy: callers own their view
      return;
    }
  }
  GtNodeSoa view;  // a pinned root is aliased, not fetched
  const char* why = nullptr;
  const bool loaded = LoadSoa(id, &view, &why);
  GAUSS_CHECK_MSG(loaded, why);
  *scratch = view.ToNode();
}

bool GtNodeStore::LoadSoa(PageId id, GtNodeSoa* view, const char** why) const {
  if (!finalized_) {
    auto it = nodes_.find(id);
    if (it != nodes_.end()) {
      GtNodeSoa::FromNode(*it->second, dim_, view);
      return true;
    }
  } else if (pinned_soa_ != nullptr && id == pinned_id_) {
    view->Alias(*pinned_soa_);  // pinned root: no pool fetch, no copy
    return true;
  }
  view->page.Release();
  PageRef page = pool_->Fetch(id);
  const bool verified = page.verified();
  const char* reason = ViewPage(page.data(), id, /*check_crc=*/!verified, view);
  if (reason != nullptr) {
    view->n = 0;
    if (why != nullptr) *why = reason;
    return false;
  }
  // An inner node is kept over leaves: every query walks the upper levels,
  // while a leaf is shared by few queries.
  if (!verified) page.MarkVerified(/*keep=*/!view->leaf());
  view->page = std::move(page);
  return true;
}

const char* GtNodeStore::ViewPage(const uint8_t* bytes, PageId id,
                                  bool check_crc, GtNodeSoa* view) const {
  const char* reason =
      GtNodeSoa::Validate(bytes, pool_->page_size(), dim_, check_crc);
  if (reason != nullptr) return reason;
  GtNodeSoa::Decode(bytes, dim_, id, view);
  const size_t page_count = pool_->device()->PageCount();
  for (size_t j = 0; !view->leaf() && j < view->n; ++j) {
    if (view->children[j] >= page_count) {
      return "child page id beyond the device";
    }
  }
  return nullptr;
}

const uint8_t* GtNodeStore::DevicePage(PageId id,
                                       std::vector<uint64_t>* scratch) const {
  PageDevice* device = pool_->device();
  if (const uint8_t* lent = device->StablePage(id)) return lent;
  device->Read(id, scratch->data());
  return reinterpret_cast<const uint8_t*>(scratch->data());
}

void GtNodeStore::Finalize() {
  if (finalized_) return;
  // Nodes go straight to the device: nothing in a build re-reads them, so
  // the cache keeps no copy. Flush and drop what it holds first, so no
  // frame of a node page outlives the write (Definalize read every page
  // through the cache) and no dirty frame lands on top of one later.
  pool_->Clear();
  std::vector<uint8_t> buffer(pool_->page_size());
  for (const auto& [id, node] : nodes_) WriteNode(*node, &buffer);
  nodes_.clear();
  finalized_ = true;
}

bool GtNodeStore::OpenFinalized(PageId root, size_t size, std::string* error) {
  GAUSS_CHECK_MSG(nodes_.empty() && all_pages_.empty(),
                  "OpenFinalized requires a fresh store");
  finalized_ = true;
  size_t objects = 0;
  std::vector<bool> seen(pool_->device()->PageCount(), false);
  std::vector<uint64_t> scratch(PageWords());
  std::deque<PageId> queue{root};
  GtNodeSoa view;
  while (!queue.empty()) {
    const PageId id = queue.front();
    queue.pop_front();
    const std::string page = "node page " + std::to_string(id);
    if (id >= seen.size()) {
      *error = page + " is beyond the device";
      return false;
    }
    if (seen[id]) {
      *error = page + " is reached twice";
      return false;
    }
    seen[id] = true;
    const char* why =
        ViewPage(DevicePage(id, &scratch), id, /*check_crc=*/true, &view);
    if (why != nullptr) {
      *error = page + ": " + why;
      return false;
    }
    all_pages_.push_back(id);
    if (view.leaf()) {
      objects += view.n;
    } else {
      queue.insert(queue.end(), view.children, view.children + view.n);
    }
  }
  if (objects != size) {
    *error = "the leaves hold " + std::to_string(objects) + " objects, the "
             "header says " + std::to_string(size);
  }
  return objects == size;
}

void GtNodeStore::PinRoot(PageId id) {
  GAUSS_CHECK_MSG(finalized_, "PinRoot requires query mode");
  pinned_soa_.reset();
  // Read from the device, past the pool: pinning leaves no frame behind.
  pinned_page_.assign(PageWords(), 0);
  pool_->device()->Read(id, pinned_page_.data());
  pinned_soa_ = std::make_unique<GtNodeSoa>();
  const char* why =
      ViewPage(reinterpret_cast<const uint8_t*>(pinned_page_.data()), id,
               /*check_crc=*/true, pinned_soa_.get());
  GAUSS_CHECK_MSG(why == nullptr, why);
  const GtNode root = pinned_soa_->ToNode();
  pinned_bounds_.clear();
  if (root.EntryCount() > 0) pinned_bounds_ = root.ComputeBounds(dim_);
  pinned_id_ = id;
}

void GtNodeStore::Definalize() {
  if (!finalized_) return;
  pinned_soa_.reset();
  pinned_page_.clear();
  pinned_bounds_.clear();
  pinned_id_ = kInvalidPageId;
  for (PageId id : all_pages_) {
    auto node = std::make_unique<GtNode>();
    Load(id, node.get());
    nodes_.emplace(id, std::move(node));
  }
  finalized_ = false;
}

}  // namespace gauss
