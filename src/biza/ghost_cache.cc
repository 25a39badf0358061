#include "src/biza/ghost_cache.h"

#include <cassert>

namespace biza {

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

void GhostCache::InsertLru(uint64_t key, Node& node) {
  node.where = Residence::kLru;
  lru_.push_front(key);
  node.lru_it = lru_.begin();
  if (lru_.size() > config_.lru_entries) {
    const uint64_t victim = lru_.back();
    lru_.pop_back();
    nodes_.erase(victim);
  }
}

void GhostCache::EvictHrIfFull() {
  if (hr_.size() <= config_.hr_entries) {
    return;
  }
  // Evict the minimum-reaccess entry back to the LRU cache (2b in Fig. 7).
  const uint64_t victim = hr_.begin()->second;
  hr_.erase(hr_.begin());
  auto it = nodes_.find(victim);
  assert(it != nodes_.end());
  stats_.lru_demotions++;
  InsertLru(victim, it->second);
}

void GhostCache::EvictHpIfFull() {
  if (hp_.size() <= config_.hp_entries) {
    return;
  }
  // Evict the maximum-reuse-distance entry back to the HR cache (3b).
  auto last = std::prev(hp_.end());
  const uint64_t victim = last->second;
  hp_.erase(last);
  auto it = nodes_.find(victim);
  assert(it != nodes_.end());
  Node& node = it->second;
  node.where = Residence::kHr;
  hr_.insert({node.reaccess, victim});
  stats_.hr_demotions++;
  EvictHrIfFull();
}

void GhostCache::PromoteToHr(uint64_t key, Node& node) {
  node.where = Residence::kHr;
  hr_.insert({node.reaccess, key});
  stats_.hr_promotions++;
  EvictHrIfFull();
}

void GhostCache::PromoteToHp(uint64_t key, Node& node) {
  node.where = Residence::kHp;
  hp_.insert({Quantize(node.reuse_ewma), key});
  stats_.hp_promotions++;
  EvictHpIfFull();
}

ChunkTier GhostCache::OnWrite(uint64_t key) {
  clock_++;
  stats_.lookups++;

  auto it = nodes_.find(key);
  if (it == nodes_.end()) {
    Node node;
    node.last_clock = clock_;
    auto [inserted, ok] = nodes_.emplace(key, node);
    assert(ok);
    InsertLru(key, inserted->second);
    return ChunkTier::kTrivial;
  }

  Node& node = it->second;
  switch (node.where) {
    case Residence::kLru: {
      stats_.lru_hits++;
      UpdateAttrs(node);
      // Refresh LRU position.
      lru_.erase(node.lru_it);
      lru_.push_front(key);
      node.lru_it = lru_.begin();
      if (node.reaccess >= config_.promote_reaccess) {
        lru_.erase(node.lru_it);
        PromoteToHr(key, node);
        // A key that is the minimum of a full HR evicts itself straight back
        // to the LRU; it must not then also enter HP.
        if (node.where == Residence::kHr && node.has_reuse &&
            node.reuse_ewma <= static_cast<double>(config_.hp_reuse_threshold)) {
          hr_.erase({node.reaccess, key});
          PromoteToHp(key, node);
          return ChunkTier::kHighProfit;
        }
        return ChunkTier::kHighRevenue;
      }
      return ChunkTier::kTrivial;
    }
    case Residence::kHr: {
      hr_.erase({node.reaccess, key});
      UpdateAttrs(node);
      if (node.reuse_ewma <= static_cast<double>(config_.hp_reuse_threshold)) {
        PromoteToHp(key, node);
        return ChunkTier::kHighProfit;
      }
      hr_.insert({node.reaccess, key});
      return ChunkTier::kHighRevenue;
    }
    case Residence::kHp: {
      hp_.erase({Quantize(node.reuse_ewma), key});
      UpdateAttrs(node);
      hp_.insert({Quantize(node.reuse_ewma), key});
      return ChunkTier::kHighProfit;
    }
  }
  return ChunkTier::kTrivial;
}

ChunkTier GhostCache::TierOf(uint64_t key) const {
  auto it = nodes_.find(key);
  if (it == nodes_.end()) {
    return ChunkTier::kTrivial;
  }
  switch (it->second.where) {
    case Residence::kHp:
      return ChunkTier::kHighProfit;
    case Residence::kHr:
      return ChunkTier::kHighRevenue;
    case Residence::kLru:
      return ChunkTier::kTrivial;
  }
  return ChunkTier::kTrivial;
}

}  // namespace biza
