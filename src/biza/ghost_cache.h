// Ghost-cache-based chunk classifier — the zone group selector's brain
// (§4.2, Fig. 7).
//
// Three attribute-only ("ghost") caches track write locality:
//
//   LRU cache  -- admission filter: chunks with poor temporal locality fall
//                 off the tail and stay "trivial".
//   HR cache   -- high-revenue: chunks whose predicted reaccess count passed
//                 the promotion threshold. Priority queue evicting the
//                 MINIMUM reaccess count back to the LRU cache.
//   HP cache   -- high-profit: high-revenue chunks whose predicted reuse
//                 distance is short enough to fit ZRWA. Priority queue
//                 evicting the MAXIMUM reuse distance back to the HR cache.
//
// Predictions (paper's choices): accumulated reaccess count, and a weighted
// moving average of recent reuse distances. Reuse distance is measured in
// blocks written between two consecutive writes of the same key.
//
// The caches store attributes only — no payloads — so a million tracked
// chunks cost a few tens of MB (7.6 MB in the paper's configuration).
//
// Layout: every tracked key owns one slot of a node slab, found through a
// SparseTable index; the LRU is an intrusive list over slot numbers and HR
// and HP are indexed binary min-heaps. A write in steady state allocates
// nothing. Eviction order is exact: HR's top is the least (reaccess, key)
// and HP's top the greatest (quantized reuse, key), so ties between equal
// priorities always go to the same key.
#ifndef BIZA_SRC_BIZA_GHOST_CACHE_H_
#define BIZA_SRC_BIZA_GHOST_CACHE_H_

#include <cstdint>
#include <vector>

#include "src/common/sparse_array.h"

namespace biza {

enum class ChunkTier : uint8_t {
  kTrivial = 0,      // unknown / poor locality -> trivial zone group
  kHighRevenue = 1,  // many reaccesses, long reuse -> GC-aware zone group
  kHighProfit = 2,   // many reaccesses, short reuse -> ZRWA-aware zone group
};

struct GhostCacheConfig {
  uint64_t lru_entries = 65536;
  uint64_t hr_entries = 16384;
  uint64_t hp_entries = 2048;
  uint32_t promote_reaccess = 3;        // LRU -> HR threshold (paper: 3)
  uint64_t hp_reuse_threshold = 28672;  // blocks; set to 2 x total ZRWA
  double reuse_ewma_alpha = 0.5;
};

struct GhostCacheStats {
  uint64_t lookups = 0;
  uint64_t lru_hits = 0;
  uint64_t hr_promotions = 0;
  uint64_t hp_promotions = 0;
  uint64_t hr_demotions = 0;   // HP -> HR evictions
  uint64_t lru_demotions = 0;  // HR -> LRU evictions
};

class GhostCache {
 public:
  explicit GhostCache(const GhostCacheConfig& config) : config_(config) {}

  // Records a write of `key` (one block) and returns the tier the chunk
  // should be placed in. Advances the reuse-distance clock by one block.
  ChunkTier OnWrite(uint64_t key);

  // Current tier without side effects (kTrivial if untracked or LRU-only).
  ChunkTier TierOf(uint64_t key) const;

  const GhostCacheStats& stats() const { return stats_; }
  uint64_t tracked_entries() const { return index_.size(); }
  uint64_t clock() const { return clock_; }

  // Bytes allocated for the node slab, the key index and both heaps.
  uint64_t ResidentBytes() const;

 private:
  enum class Residence : uint8_t { kLru, kHr, kHp };
  static constexpr uint32_t kNil = ~0u;

  struct Node {
    uint64_t key = 0;
    uint64_t last_clock = 0;
    double reuse_ewma = 0.0;
    uint32_t reaccess = 0;
    uint32_t prev = kNil;   // LRU neighbours, valid iff where == kLru;
    uint32_t next = kNil;   // `next` also chains the free slots
    uint32_t heap_pos = 0;  // entry in hr_ or hp_, valid iff where != kLru
    Residence where = Residence::kLru;
    bool has_reuse = false;
  };

  // A heap position: (priority, tie) compared lexicographically.
  struct Order {
    uint64_t priority;
    uint64_t tie;
    bool operator<(const Order& o) const {
      return priority != o.priority ? priority < o.priority : tie < o.tie;
    }
  };

  // Binary min-heap of Orders naming slab slots. Every move of an entry
  // rewrites its node's heap_pos, so any member can be re-keyed or removed
  // in O(log n).
  class MinHeap {
   public:
    size_t size() const { return entries_.size(); }
    uint32_t top() const { return entries_[0].slot; }
    void Push(Order order, uint32_t slot, std::vector<Node>& nodes);
    void Remove(uint32_t pos, std::vector<Node>& nodes);
    void Rekey(uint32_t pos, Order order, std::vector<Node>& nodes);
    uint64_t allocated_bytes() const {
      return entries_.capacity() * sizeof(Entry);
    }

   private:
    struct Entry {
      Order order;
      uint32_t slot;
    };
    void Place(size_t pos, const Entry& entry, std::vector<Node>& nodes);
    void SiftUp(size_t pos, std::vector<Node>& nodes);
    void SiftDown(size_t pos, std::vector<Node>& nodes);
    std::vector<Entry> entries_;
  };

  // Reuse distance quantized for heap ordering (ties broken by key).
  static uint64_t Quantize(double reuse) {
    return reuse < 0.0 ? 0 : static_cast<uint64_t>(reuse);
  }

  // HR's top is the least (reaccess, key); HP orders by the complement of
  // (reuse, key), so its top is the greatest pair.
  static Order HrOrder(const Node& node) { return {node.reaccess, node.key}; }
  static Order HpOrder(const Node& node) {
    return {~Quantize(node.reuse_ewma), ~node.key};
  }

  uint32_t AllocNode(uint64_t key);
  void FreeNode(uint32_t slot);
  void LruLink(uint32_t slot);  // at the front (most recently used)
  void LruUnlink(uint32_t slot);

  void UpdateAttrs(Node& node);
  void InsertLru(uint32_t slot);
  void PromoteToHr(uint32_t slot);
  void PromoteToHp(uint32_t slot);
  void EvictHrIfFull();
  void EvictHpIfFull();

  GhostCacheConfig config_;
  std::vector<Node> nodes_;      // slab; freed slots chain through `next`
  uint32_t free_head_ = kNil;
  SparseTable<uint32_t> index_;  // key -> slot
  uint32_t lru_head_ = kNil;     // most recently used
  uint32_t lru_tail_ = kNil;
  uint64_t lru_size_ = 0;
  MinHeap hr_;
  MinHeap hp_;
  uint64_t clock_ = 0;
  GhostCacheStats stats_;
};

}  // namespace biza

#endif  // BIZA_SRC_BIZA_GHOST_CACHE_H_
