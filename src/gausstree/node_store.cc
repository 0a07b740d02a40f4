#include "gausstree/node_store.h"

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
  GAUSS_CHECK(it != nodes_.end());
  return it->second.get();
}

void GtNodeStore::Load(PageId id, GtNode* scratch) const {
  if (!finalized_) {
    auto it = nodes_.find(id);
    GAUSS_CHECK(it != nodes_.end());
    *scratch = *it->second;  // copy: callers own their view
    return;
  }
  if (pinned_ != nullptr && id == pinned_id_) {
    *scratch = *pinned_;  // pinned root: no pool fetch
    return;
  }
  const PageRef page = pool_->Fetch(id);
  *scratch = GtNode::Deserialize(page.data(), dim_, id);
}

void GtNodeStore::LoadSoa(PageId id, GtNodeSoa* scratch) const {
  if (!finalized_) {
    auto it = nodes_.find(id);
    GAUSS_CHECK(it != nodes_.end());
    GtNodeSoa::FromNode(*it->second, dim_, scratch);
    return;
  }
  if (pinned_soa_ != nullptr && id == pinned_id_) {
    *scratch = *pinned_soa_;  // pinned root: no pool fetch
    return;
  }
  const PageRef page = pool_->Fetch(id);
  GtNodeSoa::Decode(page.data(), dim_, id, scratch);
}

void GtNodeStore::Finalize() {
  if (finalized_) return;
  std::vector<uint8_t> buffer(pool_->device()->page_size(), 0);
  for (const auto& [id, node] : nodes_) {
    GAUSS_CHECK_MSG(node->SerializedSize(dim_) <= buffer.size(),
                    "node exceeds page capacity");
    std::fill(buffer.begin(), buffer.end(), 0);
    node->Serialize(buffer.data(), dim_);
    pool_->WritePage(id, buffer.data());
  }
  pool_->FlushAll();
  finalized_count_ = nodes_.size();
  nodes_.clear();
  finalized_ = true;
}

void GtNodeStore::OpenFinalized(std::vector<PageId> pages) {
  GAUSS_CHECK_MSG(nodes_.empty() && all_pages_.empty(),
                  "OpenFinalized requires a fresh store");
  all_pages_ = std::move(pages);
  finalized_count_ = all_pages_.size();
  finalized_ = true;
}

void GtNodeStore::PinRoot(PageId id) {
  GAUSS_CHECK_MSG(finalized_, "PinRoot requires query mode");
  const PageRef page = pool_->Fetch(id);
  pinned_ =
      std::make_unique<GtNode>(GtNode::Deserialize(page.data(), dim_, id));
  pinned_soa_ = std::make_unique<GtNodeSoa>();
  GtNodeSoa::Decode(page.data(), dim_, id, pinned_soa_.get());
  pinned_bounds_.clear();
  if (pinned_->EntryCount() > 0) {
    pinned_bounds_ = pinned_->ComputeBounds(dim_);
  }
  pinned_id_ = id;
}

void GtNodeStore::Definalize() {
  if (!finalized_) return;
  pinned_.reset();
  pinned_soa_.reset();
  pinned_bounds_.clear();
  pinned_id_ = kInvalidPageId;
  for (PageId id : all_pages_) {
    const PageRef page = pool_->Fetch(id);
    auto node =
        std::make_unique<GtNode>(GtNode::Deserialize(page.data(), dim_, id));
    nodes_.emplace(id, std::move(node));
  }
  finalized_ = false;
  finalized_count_ = 0;
}

size_t GtNodeStore::node_count() const {
  return finalized_ ? finalized_count_ : nodes_.size();
}

}  // namespace gauss
