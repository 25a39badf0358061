#include "src/biza/ghost_cache.h"

#include <algorithm>
#include <cassert>

namespace biza {

void GhostCache::MinHeap::Place(size_t pos, const Entry& entry,
                                std::vector<Node>& nodes) {
  entries_[pos] = entry;
  nodes[entry.slot].heap_pos = static_cast<uint32_t>(pos);
}

void GhostCache::MinHeap::SiftUp(size_t pos, std::vector<Node>& nodes) {
  const Entry entry = entries_[pos];
  while (pos > 0) {
    const size_t parent = (pos - 1) / 2;
    if (!(entry.order < entries_[parent].order)) {
      break;
    }
    Place(pos, entries_[parent], nodes);
    pos = parent;
  }
  Place(pos, entry, nodes);
}

void GhostCache::MinHeap::SiftDown(size_t pos, std::vector<Node>& nodes) {
  const Entry entry = entries_[pos];
  const size_t n = entries_.size();
  for (size_t child = 2 * pos + 1; child < n; child = 2 * pos + 1) {
    if (child + 1 < n && entries_[child + 1].order < entries_[child].order) {
      child++;
    }
    if (!(entries_[child].order < entry.order)) {
      break;
    }
    Place(pos, entries_[child], nodes);
    pos = child;
  }
  Place(pos, entry, nodes);
}

void GhostCache::MinHeap::Push(Order order, uint32_t slot,
                               std::vector<Node>& nodes) {
  entries_.push_back({order, slot});
  SiftUp(entries_.size() - 1, nodes);
}

void GhostCache::MinHeap::Remove(uint32_t pos, std::vector<Node>& nodes) {
  assert(pos < entries_.size());
  const Entry last = entries_.back();
  entries_.pop_back();
  if (pos == entries_.size()) {
    return;
  }
  entries_[pos] = last;
  if (pos > 0 && last.order < entries_[(pos - 1) / 2].order) {
    SiftUp(pos, nodes);
  } else {
    SiftDown(pos, nodes);
  }
}

void GhostCache::MinHeap::Rekey(uint32_t pos, Order order,
                                std::vector<Node>& nodes) {
  const bool up = order < entries_[pos].order;
  entries_[pos].order = order;
  if (up) {
    SiftUp(pos, nodes);
  } else {
    SiftDown(pos, nodes);
  }
}

uint32_t GhostCache::AllocNode(uint64_t key) {
  uint32_t slot = free_head_;
  if (slot != kNil) {
    free_head_ = nodes_[slot].next;
    nodes_[slot] = Node{};
  } else {
    if (nodes_.size() == nodes_.capacity()) {
      // Grow geometrically, but never past the most keys the caches hold at
      // once: each cache full, plus the key being admitted.
      const uint64_t most = config_.lru_entries + config_.hr_entries +
                            config_.hp_entries + 1;
      nodes_.reserve(std::max<uint64_t>(
          nodes_.size() + 1, std::min<uint64_t>(2 * nodes_.size(), most)));
    }
    assert(nodes_.size() < kNil);
    slot = static_cast<uint32_t>(nodes_.size());
    nodes_.emplace_back();
  }
  nodes_[slot].key = key;
  index_.Set(key, slot);
  return slot;
}

void GhostCache::FreeNode(uint32_t slot) {
  index_.Erase(nodes_[slot].key);
  nodes_[slot].next = free_head_;
  free_head_ = slot;
}

void GhostCache::LruLink(uint32_t slot) {
  Node& node = nodes_[slot];
  node.where = Residence::kLru;
  node.prev = kNil;
  node.next = lru_head_;
  if (lru_head_ != kNil) {
    nodes_[lru_head_].prev = slot;
  } else {
    lru_tail_ = slot;
  }
  lru_head_ = slot;
  lru_size_++;
}

void GhostCache::LruUnlink(uint32_t slot) {
  const Node& node = nodes_[slot];
  (node.prev != kNil ? nodes_[node.prev].next : lru_head_) = node.next;
  (node.next != kNil ? nodes_[node.next].prev : lru_tail_) = node.prev;
  lru_size_--;
}

void GhostCache::UpdateAttrs(Node& node) {
  const double reuse = static_cast<double>(clock_ - node.last_clock);
  node.reaccess++;
  if (node.has_reuse) {
    node.reuse_ewma = config_.reuse_ewma_alpha * reuse +
                      (1.0 - config_.reuse_ewma_alpha) * node.reuse_ewma;
  } else {
    node.reuse_ewma = reuse;
    node.has_reuse = true;
  }
  node.last_clock = clock_;
}

void GhostCache::InsertLru(uint32_t slot) {
  LruLink(slot);
  if (lru_size_ > config_.lru_entries) {
    const uint32_t victim = lru_tail_;
    LruUnlink(victim);
    FreeNode(victim);
  }
}

void GhostCache::EvictHrIfFull() {
  if (hr_.size() <= config_.hr_entries) {
    return;
  }
  // Evict the minimum-reaccess entry back to the LRU cache (2b in Fig. 7).
  const uint32_t victim = hr_.top();
  hr_.Remove(0, nodes_);
  stats_.lru_demotions++;
  InsertLru(victim);
}

void GhostCache::EvictHpIfFull() {
  if (hp_.size() <= config_.hp_entries) {
    return;
  }
  // Evict the maximum-reuse-distance entry back to the HR cache (3b).
  const uint32_t victim = hp_.top();
  hp_.Remove(0, nodes_);
  nodes_[victim].where = Residence::kHr;
  hr_.Push(HrOrder(nodes_[victim]), victim, nodes_);
  stats_.hr_demotions++;
  EvictHrIfFull();
}

void GhostCache::PromoteToHr(uint32_t slot) {
  nodes_[slot].where = Residence::kHr;
  hr_.Push(HrOrder(nodes_[slot]), slot, nodes_);
  stats_.hr_promotions++;
  EvictHrIfFull();
}

void GhostCache::PromoteToHp(uint32_t slot) {
  nodes_[slot].where = Residence::kHp;
  hp_.Push(HpOrder(nodes_[slot]), slot, nodes_);
  stats_.hp_promotions++;
  EvictHpIfFull();
}

ChunkTier GhostCache::OnWrite(uint64_t key) {
  clock_++;
  stats_.lookups++;

  const uint32_t* found = index_.Find(key);
  if (found == nullptr) {
    const uint32_t slot = AllocNode(key);
    nodes_[slot].last_clock = clock_;
    InsertLru(slot);
    return ChunkTier::kTrivial;
  }

  // Evictions below free slots but never grow the slab, so `node` stays
  // valid until the write returns.
  const uint32_t slot = *found;
  Node& node = nodes_[slot];
  const double hp_threshold = static_cast<double>(config_.hp_reuse_threshold);
  switch (node.where) {
    case Residence::kLru: {
      stats_.lru_hits++;
      UpdateAttrs(node);
      LruUnlink(slot);
      if (node.reaccess < config_.promote_reaccess) {
        LruLink(slot);  // refresh the LRU position
        return ChunkTier::kTrivial;
      }
      PromoteToHr(slot);
      // A key that is the minimum of a full HR evicts itself straight back
      // to the LRU; it must not then also enter HP.
      if (node.where == Residence::kHr && node.has_reuse &&
          node.reuse_ewma <= hp_threshold) {
        hr_.Remove(node.heap_pos, nodes_);
        PromoteToHp(slot);
        return ChunkTier::kHighProfit;
      }
      return ChunkTier::kHighRevenue;
    }
    case Residence::kHr: {
      UpdateAttrs(node);
      if (node.reuse_ewma <= hp_threshold) {
        hr_.Remove(node.heap_pos, nodes_);
        PromoteToHp(slot);
        return ChunkTier::kHighProfit;
      }
      hr_.Rekey(node.heap_pos, HrOrder(node), nodes_);
      return ChunkTier::kHighRevenue;
    }
    case Residence::kHp: {
      UpdateAttrs(node);
      hp_.Rekey(node.heap_pos, HpOrder(node), nodes_);
      return ChunkTier::kHighProfit;
    }
  }
  return ChunkTier::kTrivial;
}

ChunkTier GhostCache::TierOf(uint64_t key) const {
  const uint32_t* slot = index_.Find(key);
  if (slot == nullptr) {
    return ChunkTier::kTrivial;
  }
  switch (nodes_[*slot].where) {
    case Residence::kHp:
      return ChunkTier::kHighProfit;
    case Residence::kHr:
      return ChunkTier::kHighRevenue;
    case Residence::kLru:
      return ChunkTier::kTrivial;
  }
  return ChunkTier::kTrivial;
}

uint64_t GhostCache::ResidentBytes() const {
  return nodes_.capacity() * sizeof(Node) + index_.allocated_bytes() +
         hr_.allocated_bytes() + hp_.allocated_bytes();
}

}  // namespace biza
