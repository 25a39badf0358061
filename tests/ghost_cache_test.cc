// Tests of the ghost-cache chunk classifier (§4.2): LRU admission, HR/HP
// promotion rules, eviction policies, and attribute prediction.
#include <cassert>
#include <list>
#include <ostream>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/biza/ghost_cache.h"
#include "src/common/rng.h"

namespace biza {
namespace {

// The classifier on std containers: a node map, a std::list LRU and two
// ordered sets. GhostCache must make the same decision on every write; the
// differential tests below drive both with one key stream.
class ReferenceGhostCache {
 public:
  explicit ReferenceGhostCache(const GhostCacheConfig& config)
      : config_(config) {}

  ChunkTier OnWrite(uint64_t key);
  ChunkTier TierOf(uint64_t key) const;

  const GhostCacheStats& stats() const { return stats_; }
  uint64_t tracked_entries() const { return nodes_.size(); }
  uint64_t clock() const { return clock_; }

 private:
  enum class Residence : uint8_t { kLru, kHr, kHp };

  struct Node {
    Residence where = Residence::kLru;
    uint32_t reaccess = 0;
    double reuse_ewma = 0.0;
    bool has_reuse = false;
    uint64_t last_clock = 0;
    std::list<uint64_t>::iterator lru_it;  // valid iff where == kLru
  };

  static uint64_t Quantize(double reuse) {
    return reuse < 0.0 ? 0 : static_cast<uint64_t>(reuse);
  }

  void UpdateAttrs(Node& node);
  void InsertLru(uint64_t key, Node& node);
  void PromoteToHr(uint64_t key, Node& node);
  void PromoteToHp(uint64_t key, Node& node);
  void EvictHrIfFull();
  void EvictHpIfFull();

  GhostCacheConfig config_;
  std::unordered_map<uint64_t, Node> nodes_;
  std::list<uint64_t> lru_;  // front = most recently used
  std::set<std::pair<uint32_t, uint64_t>> hr_;  // (reaccess, key), min-evict
  std::set<std::pair<uint64_t, uint64_t>> hp_;  // (reuse, key), max-evict
  uint64_t clock_ = 0;
  GhostCacheStats stats_;
};

void ReferenceGhostCache::UpdateAttrs(Node& node) {
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

void ReferenceGhostCache::InsertLru(uint64_t key, Node& node) {
  node.where = Residence::kLru;
  lru_.push_front(key);
  node.lru_it = lru_.begin();
  if (lru_.size() > config_.lru_entries) {
    const uint64_t victim = lru_.back();
    lru_.pop_back();
    nodes_.erase(victim);
  }
}

void ReferenceGhostCache::EvictHrIfFull() {
  if (hr_.size() <= config_.hr_entries) {
    return;
  }
  const uint64_t victim = hr_.begin()->second;
  hr_.erase(hr_.begin());
  auto it = nodes_.find(victim);
  assert(it != nodes_.end());
  stats_.lru_demotions++;
  InsertLru(victim, it->second);
}

void ReferenceGhostCache::EvictHpIfFull() {
  if (hp_.size() <= config_.hp_entries) {
    return;
  }
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

void ReferenceGhostCache::PromoteToHr(uint64_t key, Node& node) {
  node.where = Residence::kHr;
  hr_.insert({node.reaccess, key});
  stats_.hr_promotions++;
  EvictHrIfFull();
}

void ReferenceGhostCache::PromoteToHp(uint64_t key, Node& node) {
  node.where = Residence::kHp;
  hp_.insert({Quantize(node.reuse_ewma), key});
  stats_.hp_promotions++;
  EvictHpIfFull();
}

ChunkTier ReferenceGhostCache::OnWrite(uint64_t key) {
  clock_++;
  stats_.lookups++;

  auto it = nodes_.find(key);
  if (it == nodes_.end()) {
    Node node;
    node.last_clock = clock_;
    auto [inserted, ok] = nodes_.emplace(key, node);
    assert(ok);
    (void)ok;
    InsertLru(key, inserted->second);
    return ChunkTier::kTrivial;
  }

  Node& node = it->second;
  switch (node.where) {
    case Residence::kLru: {
      stats_.lru_hits++;
      UpdateAttrs(node);
      lru_.erase(node.lru_it);
      lru_.push_front(key);
      node.lru_it = lru_.begin();
      if (node.reaccess >= config_.promote_reaccess) {
        lru_.erase(node.lru_it);
        PromoteToHr(key, node);
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

ChunkTier ReferenceGhostCache::TierOf(uint64_t key) const {
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

GhostCacheConfig SmallConfig() {
  GhostCacheConfig config;
  config.lru_entries = 64;
  config.hr_entries = 16;
  config.hp_entries = 4;
  config.promote_reaccess = 3;
  config.hp_reuse_threshold = 100;
  return config;
}

TEST(GhostCache, FirstWriteIsTrivial) {
  GhostCache cache(SmallConfig());
  EXPECT_EQ(cache.OnWrite(1), ChunkTier::kTrivial);
  EXPECT_EQ(cache.TierOf(1), ChunkTier::kTrivial);
  EXPECT_EQ(cache.tracked_entries(), 1u);
}

TEST(GhostCache, PromotionAtReaccessThreshold) {
  GhostCache cache(SmallConfig());
  EXPECT_EQ(cache.OnWrite(1), ChunkTier::kTrivial);  // reaccess 0
  EXPECT_EQ(cache.OnWrite(1), ChunkTier::kTrivial);  // reaccess 1
  EXPECT_EQ(cache.OnWrite(1), ChunkTier::kTrivial);  // reaccess 2
  // Third reaccess crosses the threshold; reuse distance is tiny so the
  // chunk goes straight to high-profit.
  EXPECT_EQ(cache.OnWrite(1), ChunkTier::kHighProfit);
  EXPECT_EQ(cache.stats().hr_promotions, 1u);
  EXPECT_EQ(cache.stats().hp_promotions, 1u);
}

TEST(GhostCache, LongReuseDistanceStaysHighRevenue) {
  GhostCacheConfig config = SmallConfig();
  config.lru_entries = 10000;
  GhostCache cache(config);
  // Interleave key 1 with 500 UNIQUE writes per round so its reuse
  // distance is ~500, far above the HP threshold (100). Unique fillers
  // never get promoted themselves, so key 1 stays resident in HR.
  for (int round = 0; round < 5; ++round) {
    cache.OnWrite(1);
    for (uint64_t f = 0; f < 500; ++f) {
      cache.OnWrite(1000 + static_cast<uint64_t>(round) * 500 + f);
    }
  }
  EXPECT_EQ(cache.TierOf(1), ChunkTier::kHighRevenue);
}

TEST(GhostCache, HrPromotesToHpWhenReuseShrinks) {
  GhostCacheConfig config = SmallConfig();
  config.lru_entries = 10000;
  GhostCache cache(config);
  for (int round = 0; round < 5; ++round) {
    cache.OnWrite(1);
    for (uint64_t f = 0; f < 500; ++f) {
      cache.OnWrite(1000 + static_cast<uint64_t>(round) * 500 + f);
    }
  }
  ASSERT_EQ(cache.TierOf(1), ChunkTier::kHighRevenue);
  // Now the chunk turns hot: short-reuse writes pull the EWMA down until
  // it crosses the HP threshold.
  ChunkTier tier = ChunkTier::kHighRevenue;
  for (int i = 0; i < 12 && tier != ChunkTier::kHighProfit; ++i) {
    tier = cache.OnWrite(1);
  }
  EXPECT_EQ(tier, ChunkTier::kHighProfit);
}

TEST(GhostCache, LruEvictsForgetsCold) {
  GhostCacheConfig config = SmallConfig();
  config.lru_entries = 8;
  GhostCache cache(config);
  cache.OnWrite(1);
  for (uint64_t k = 100; k < 120; ++k) {
    cache.OnWrite(k);  // push key 1 off the LRU tail
  }
  // Key 1 was forgotten: writing it again starts from scratch.
  EXPECT_EQ(cache.OnWrite(1), ChunkTier::kTrivial);
  EXPECT_EQ(cache.OnWrite(1), ChunkTier::kTrivial);
}

TEST(GhostCache, HpEvictsMaxReuseDistance) {
  GhostCacheConfig config = SmallConfig();
  config.hp_entries = 2;
  config.hp_reuse_threshold = 1000000;  // everything qualifies for HP
  config.lru_entries = 10000;
  GhostCache cache(config);
  // Three keys promoted to HP; capacity 2 evicts the max-reuse one.
  // Key 3 gets the longest reuse distance.
  for (int round = 0; round < 4; ++round) {
    cache.OnWrite(1);
    cache.OnWrite(2);
    cache.OnWrite(3);
    for (uint64_t filler = 500 + static_cast<uint64_t>(round) * 100,
                  end = filler + 50;
         filler < end; ++filler) {
      cache.OnWrite(filler);  // inflate key 3's... all equally.
    }
  }
  // All three qualified; HP holds 2; one was demoted to HR.
  int hp_count = 0;
  for (uint64_t k : {1, 2, 3}) {
    if (cache.TierOf(k) == ChunkTier::kHighProfit) {
      hp_count++;
    }
  }
  EXPECT_EQ(hp_count, 2);
  EXPECT_GE(cache.stats().hr_demotions, 1u);
}

TEST(GhostCache, HrEvictsMinReaccess) {
  GhostCacheConfig config = SmallConfig();
  config.hr_entries = 2;
  config.hp_entries = 1;
  config.hp_reuse_threshold = 0;  // nothing reaches HP (reuse always > 0)
  config.lru_entries = 10000;
  GhostCache cache(config);
  // Key 1 is reaccessed many times, keys 2 and 3 just cross the threshold.
  for (int i = 0; i < 10; ++i) {
    cache.OnWrite(1);
  }
  for (int i = 0; i < 4; ++i) {
    cache.OnWrite(2);
  }
  for (int i = 0; i < 4; ++i) {
    cache.OnWrite(3);
  }
  // HR capacity 2: the min-reaccess member (2 or 3) was demoted; key 1
  // with the highest count stays.
  EXPECT_EQ(cache.TierOf(1), ChunkTier::kHighRevenue);
  EXPECT_GE(cache.stats().lru_demotions, 1u);
}

TEST(GhostCache, SelfEvictedHrPromotionStaysOutOfHp) {
  // Key 1 reaches the promotion threshold while a full HR holds key 200
  // with the same reaccess count, so the promotion evicts key 1 itself back
  // to the LRU. It must not also enter HP: it would then live in both, and
  // once it aged out of the LRU, HP would keep a key with no node.
  GhostCacheConfig config;
  config.lru_entries = 64;
  config.hr_entries = 1;
  config.hp_entries = 1;
  config.promote_reaccess = 2;
  config.hp_reuse_threshold = 3;
  GhostCache cache(config);
  uint64_t fresh = 10000;
  // Three writes of `key`, `apart` blocks apart (fresh keys in between).
  auto write_thrice = [&](uint64_t key, int apart) {
    ChunkTier tier = ChunkTier::kTrivial;
    for (int w = 0; w < 3; ++w) {
      for (int gap = 1; w > 0 && gap < apart; ++gap) {
        cache.OnWrite(fresh++);
      }
      tier = cache.OnWrite(key);
    }
    return tier;
  };

  EXPECT_EQ(write_thrice(200, 6), ChunkTier::kHighRevenue);
  write_thrice(1, 3);
  EXPECT_EQ(cache.TierOf(1), ChunkTier::kTrivial);
  EXPECT_EQ(cache.TierOf(200), ChunkTier::kHighRevenue);

  for (int k = 0; k < 80; ++k) {
    cache.OnWrite(fresh++);  // ages key 1 out of the LRU
  }
  EXPECT_EQ(cache.TierOf(1), ChunkTier::kTrivial);

  // Key 5000 displaces key 200 from HR and takes the single HP slot.
  EXPECT_EQ(write_thrice(5000, 1), ChunkTier::kHighProfit);
  EXPECT_EQ(cache.TierOf(200), ChunkTier::kTrivial);
}

TEST(GhostCache, ClockAdvancesPerWrite) {
  GhostCache cache(SmallConfig());
  EXPECT_EQ(cache.clock(), 0u);
  cache.OnWrite(1);
  cache.OnWrite(2);
  EXPECT_EQ(cache.clock(), 2u);
}

TEST(GhostCache, StatsCountLookups) {
  GhostCache cache(SmallConfig());
  cache.OnWrite(1);
  cache.OnWrite(1);
  cache.OnWrite(2);
  EXPECT_EQ(cache.stats().lookups, 3u);
  EXPECT_EQ(cache.stats().lru_hits, 1u);
}

// Once the three caches are full, the slab, the key index and the heaps stop
// growing: freed slots are reused and erased keys leave no tombstones.
TEST(GhostCache, ResidentBytesStopGrowingOnceFull) {
  GhostCache cache(SmallConfig());  // 64 LRU + 16 HR + 4 HP entries
  Rng rng(3);
  auto write = [&](int n) {
    for (int i = 0; i < n; ++i) {
      const uint64_t r = rng.Uniform(10);
      cache.OnWrite(r < 5 ? rng.Uniform(8) : r < 8 ? 8 + rng.Uniform(64)
                                                   : rng.Next() >> 24);
    }
  };
  write(50000);
  const uint64_t full = cache.ResidentBytes();
  EXPECT_GT(full, 0u);
  EXPECT_LE(cache.tracked_entries(), 64u + 16u + 4u);
  write(200000);
  EXPECT_EQ(cache.ResidentBytes(), full);
  EXPECT_LE(cache.tracked_entries(), 64u + 16u + 4u);
}

// Property: a zipf-hot workload promotes its head into HP while the cold
// tail stays trivial — the behaviour the zone group selector relies on.
TEST(GhostCache, ZipfHeadLandsInHp) {
  GhostCacheConfig config;
  config.lru_entries = 4096;
  config.hr_entries = 512;
  config.hp_entries = 64;
  config.promote_reaccess = 3;
  config.hp_reuse_threshold = 2000;
  GhostCache cache(config);
  ZipfGenerator zipf(1024, 0.99, 9);
  for (int i = 0; i < 100000; ++i) {
    cache.OnWrite(zipf.Next());
  }
  // The hottest keys must be high-profit.
  int head_hp = 0;
  for (uint64_t k = 0; k < 8; ++k) {
    if (cache.TierOf(k) == ChunkTier::kHighProfit) {
      head_hp++;
    }
  }
  EXPECT_GE(head_hp, 6);
  EXPECT_GT(cache.stats().hp_promotions, 0u);
}

// Property sweep: tier transitions only move along trivial -> HR -> HP for
// a strictly hot key (no spurious demotion without cache pressure).
class GhostMonotonicTest : public ::testing::TestWithParam<int> {};

TEST_P(GhostMonotonicTest, HotKeyNeverDemotesWithoutPressure) {
  GhostCacheConfig config = SmallConfig();
  config.hp_entries = 64;
  config.hr_entries = 64;
  GhostCache cache(config);
  const int interleave = GetParam();
  int best = 0;  // 0 trivial, 1 HR, 2 HP
  for (int i = 0; i < 300; ++i) {
    const ChunkTier tier = cache.OnWrite(42);
    for (int f = 0; f < interleave; ++f) {
      cache.OnWrite(1000 + static_cast<uint64_t>(i * interleave + f));
    }
    const int rank = static_cast<int>(tier);
    EXPECT_GE(rank, best) << "demoted at write " << i;
    best = std::max(best, rank);
  }
  EXPECT_EQ(best, 2);
}

INSTANTIATE_TEST_SUITE_P(Interleaves, GhostMonotonicTest,
                         ::testing::Values(0, 1, 5, 20));

// Differential: GhostCache against ReferenceGhostCache on a seeded stream of
// hot keys (short reuse), warm keys (long reuse) and cold keys (mostly seen
// once). After every write the tier, all six stats, the tracked-entry count
// and TierOf on sampled keys must agree.
struct DiffCase {
  const char* name;
  GhostCacheConfig config;
  uint64_t hot_keys;
  uint64_t warm_keys;
  int writes;
  bool reaches_hp;  // the stream promotes keys into HP
};

void PrintTo(const DiffCase& c, std::ostream* os) { *os << c.name; }

GhostCacheConfig Config(uint64_t lru, uint64_t hr, uint64_t hp,
                        uint32_t promote, uint64_t reuse_threshold,
                        double alpha = 0.5) {
  GhostCacheConfig config;
  config.lru_entries = lru;
  config.hr_entries = hr;
  config.hp_entries = hp;
  config.promote_reaccess = promote;
  config.hp_reuse_threshold = reuse_threshold;
  config.reuse_ewma_alpha = alpha;
  return config;
}

class GhostDifferentialTest : public ::testing::TestWithParam<DiffCase> {};

TEST_P(GhostDifferentialTest, MatchesReferenceOnEveryWrite) {
  const DiffCase& c = GetParam();
  GhostCache cache(c.config);
  ReferenceGhostCache ref(c.config);
  Rng stream(1000 + c.hot_keys);
  Rng sampler(2000 + c.warm_keys);
  constexpr uint64_t kColdBase = 1ULL << 32;
  auto draw = [&](Rng& rng) {
    const uint64_t r = rng.Uniform(100);
    if (r < 50) {
      return rng.Uniform(c.hot_keys);
    }
    if (r < 80) {
      return c.hot_keys + rng.Uniform(c.warm_keys);
    }
    return kColdBase + rng.Uniform(1ULL << 36);
  };
  auto same_stats = [](const GhostCacheStats& a, const GhostCacheStats& b) {
    return a.lookups == b.lookups && a.lru_hits == b.lru_hits &&
           a.hr_promotions == b.hr_promotions &&
           a.hp_promotions == b.hp_promotions &&
           a.hr_demotions == b.hr_demotions &&
           a.lru_demotions == b.lru_demotions;
  };
  for (int w = 0; w < c.writes; ++w) {
    const uint64_t key = draw(stream);
    ASSERT_EQ(cache.OnWrite(key), ref.OnWrite(key)) << "write " << w;
    ASSERT_TRUE(same_stats(cache.stats(), ref.stats())) << "write " << w;
    ASSERT_EQ(cache.tracked_entries(), ref.tracked_entries()) << "write " << w;
    ASSERT_EQ(cache.clock(), ref.clock());
    for (int s = 0; s < 4; ++s) {
      const uint64_t probe = s == 0 ? key : draw(sampler);
      ASSERT_EQ(cache.TierOf(probe), ref.TierOf(probe))
          << "write " << w << " key " << probe;
    }
  }
  // The stream exercised the paths the case is meant to reach.
  const GhostCacheStats& stats = ref.stats();
  EXPECT_GT(stats.lru_demotions, 0u);
  EXPECT_GE(ref.tracked_entries(), c.config.lru_entries);
  if (c.reaches_hp) {
    EXPECT_GT(stats.hr_demotions, 0u);
  } else {
    EXPECT_EQ(stats.hp_promotions, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, GhostDifferentialTest,
    ::testing::Values(
        // The default sizes; warm keys overflow HR, hot keys overflow HP.
        DiffCase{"Default", GhostCacheConfig{}, 2500, 20000, 600000, true},
        // Every cache a handful of entries: every eviction path, constantly.
        DiffCase{"Tiny", Config(16, 4, 2, 3, 24), 6, 24, 200000, true},
        // A one-entry HR promoting at two reaccesses: a new key evicts itself
        // back to the LRU whenever it ties or trails the resident.
        DiffCase{"SelfEviction", Config(64, 1, 1, 2, 6), 4, 40, 200000, true},
        // A zero reuse threshold: nothing ever qualifies for HP.
        DiffCase{"NoHp", Config(256, 32, 8, 3, 0), 16, 128, 200000, false},
        // A slow EWMA over mid-sized caches.
        DiffCase{"SlowEwma", Config(1024, 128, 32, 3, 200, 0.125), 64, 512,
                 300000, true}),
    [](const ::testing::TestParamInfo<DiffCase>& param_info) {
      return std::string(param_info.param.name);
    });

}  // namespace
}  // namespace biza
