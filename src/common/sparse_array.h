// Sparse state containers for full-geometry simulation.
//
// A full ZN540 member holds 904 zones x 275,712 blocks; four of them expose
// ~half a billion logical blocks. Dense per-block tables (the seed layout)
// cost tens of gigabytes before the first byte is written. These containers
// make resident memory proportional to *written* data instead of raw
// capacity, the same lazy-state trick device emulators use for multi-TB
// namespaces:
//
// * ChunkedArray<T> — a fixed-size logical array backed by lazily-allocated
//   fixed-size chunks. Reads of never-written ranges return a fill value
//   without allocating; the first write to a chunk allocates it; Clear()
//   bulk-frees everything (the zone-reset / erase path). Suits state that
//   fills densely from offset 0: zone blocks, physical-page tables, dm-zap's
//   per-zone reverse maps.
// * BlockMap<V> — every LBN-indexed mapping table: BIZA's BMT, ZapRAID's,
//   ConvSSD's and dm-zap's L2P. Entries live in pages of kPageEntries
//   consecutive LBNs, found through a SparseTable directory, so a contiguous
//   request touches one or two pages instead of one hashed slot per block.
//   The page stays small because host writes can land uniformly at random
//   over the whole exposed space: a write into an untouched page costs one
//   page (16 entries, ~270 B with 16-B BMT entries, directory slot
//   included), not a chunk of thousands of entries.
// * SparseTable<V> — an open-addressing hash keyed by a 64-bit index, for
//   the BlockMap directory and for tables whose keys come and go (the
//   ghost-cache index, ZapRAID's in-flight host copies).
//
// None of the containers is thread-safe; the simulator is single-threaded
// per experiment.
#ifndef BIZA_SRC_COMMON_SPARSE_ARRAY_H_
#define BIZA_SRC_COMMON_SPARSE_ARRAY_H_

#include <array>
#include <cassert>
#include <cstdint>
#include <deque>
#include <memory>
#include <utility>
#include <vector>

namespace biza {

template <typename T>
class ChunkedArray {
 public:
  ChunkedArray() = default;
  explicit ChunkedArray(uint64_t size, uint64_t chunk_size = 1024, T fill = T{})
      : size_(size), chunk_size_(chunk_size), fill_(std::move(fill)) {
    assert(chunk_size_ > 0);
    chunks_.resize((size_ + chunk_size_ - 1) / chunk_size_);
  }

  uint64_t size() const { return size_; }
  uint64_t chunk_size() const { return chunk_size_; }

  // Read without allocating: the fill value stands in for absent chunks.
  const T& Get(uint64_t i) const {
    assert(i < size_);
    const auto& chunk = chunks_[i / chunk_size_];
    return chunk == nullptr ? fill_ : chunk[i % chunk_size_];
  }

  // nullptr when the containing chunk was never written (read fast path:
  // callers can treat a null as "whole chunk unwritten").
  const T* Peek(uint64_t i) const {
    assert(i < size_);
    const auto& chunk = chunks_[i / chunk_size_];
    return chunk == nullptr ? nullptr : &chunk[i % chunk_size_];
  }

  // Write access; allocates (and fill-initializes) the chunk on first touch.
  T& Mut(uint64_t i) {
    assert(i < size_);
    auto& chunk = chunks_[i / chunk_size_];
    if (chunk == nullptr) {
      chunk = std::make_unique<T[]>(chunk_size_);
      for (uint64_t j = 0; j < chunk_size_; ++j) {
        chunk[j] = fill_;
      }
      allocated_chunks_++;
    }
    return chunk[i % chunk_size_];
  }

  // Bulk-free every chunk (zone reset / erase): O(allocated chunks).
  void Clear() {
    for (auto& chunk : chunks_) {
      chunk.reset();
    }
    allocated_chunks_ = 0;
  }

  // Frees every chunk fully contained in [begin, end) and resets entries of
  // partially covered allocated chunks to the fill value — the erase-unit
  // reclamation path. O(chunks in range).
  void ClearRange(uint64_t begin, uint64_t end) {
    assert(begin <= end && end <= size_);
    uint64_t i = begin;
    while (i < end) {
      const uint64_t c = i / chunk_size_;
      const uint64_t chunk_begin = c * chunk_size_;
      const uint64_t chunk_end = chunk_begin + chunk_size_;
      if (chunks_[c] != nullptr) {
        if (begin <= chunk_begin && chunk_end <= end) {
          chunks_[c].reset();
          allocated_chunks_--;
        } else {
          const uint64_t hi = end < chunk_end ? end : chunk_end;
          for (uint64_t j = i; j < hi; ++j) {
            chunks_[c][j - chunk_begin] = fill_;
          }
        }
      }
      i = chunk_end;
    }
  }

  // Smallest index >= i whose chunk is allocated, or size(). Scans (OOB
  // recovery, GC liveness) hop over unwritten regions chunk-by-chunk.
  uint64_t SkipUnallocated(uint64_t i) const {
    uint64_t c = i / chunk_size_;
    if (c < chunks_.size() && chunks_[c] != nullptr) {
      return i;
    }
    while (c < chunks_.size() && chunks_[c] == nullptr) {
      ++c;
    }
    return c >= chunks_.size() ? size_ : c * chunk_size_;
  }

  uint64_t allocated_chunks() const { return allocated_chunks_; }
  uint64_t allocated_bytes() const {
    return allocated_chunks_ * chunk_size_ * sizeof(T) +
           chunks_.capacity() * sizeof(chunks_[0]);
  }

 private:
  uint64_t size_ = 0;
  uint64_t chunk_size_ = 1;
  T fill_{};
  std::vector<std::unique_ptr<T[]>> chunks_;
  uint64_t allocated_chunks_ = 0;
};

// Open-addressing hash map from uint64 keys to V. Linear probing, power-of-2
// capacity, rehash at 7/8 load. Keys are logical block numbers (< 2^40), so
// the all-ones key doubles as the empty-slot sentinel. Erase uses
// backward-shift deletion, so no tombstones build up and a table whose live
// set is bounded stays bounded; the table never shrinks.
template <typename V>
class SparseTable {
 public:
  SparseTable() { Rehash(kMinSlots); }

  size_t size() const { return size_; }
  uint64_t allocated_bytes() const { return slots_.capacity() * sizeof(Slot); }

  void Clear() {
    slots_.clear();
    size_ = 0;
    Rehash(kMinSlots);
  }

  // Pointer to the value, or nullptr when absent. Never allocates.
  V* Find(uint64_t key) {
    Slot& slot = Probe(key);
    return slot.key == key ? &slot.value : nullptr;
  }
  const V* Find(uint64_t key) const {
    const Slot& slot = const_cast<SparseTable*>(this)->Probe(key);
    return slot.key == key ? &slot.value : nullptr;
  }

  // Insert-or-find; the returned reference is invalidated by the next
  // insertion of a new key (the table may rehash).
  V& Upsert(uint64_t key) {
    assert(key != kEmptyKey);
    Slot* slot = &Probe(key);
    if (slot->key != key) {
      if ((size_ + 1) * 8 > slots_.size() * 7) {
        Rehash(slots_.size() * 2);
        slot = &Probe(key);
      }
      slot->key = key;
      slot->value = V{};
      size_++;
    }
    return slot->value;
  }

  void Set(uint64_t key, V value) { Upsert(key) = std::move(value); }

  // Removes `key`; returns false when it was absent. Each later entry of the
  // probe cluster that may live in the hole moves back into it, so every
  // remaining key stays reachable from its home slot without tombstones.
  bool Erase(uint64_t key) {
    assert(key != kEmptyKey);
    const size_t mask = slots_.size() - 1;
    size_t hole = Hash(key) & mask;
    while (slots_[hole].key != key) {
      if (slots_[hole].key == kEmptyKey) {
        return false;
      }
      hole = (hole + 1) & mask;
    }
    for (size_t i = (hole + 1) & mask; slots_[i].key != kEmptyKey;
         i = (i + 1) & mask) {
      // The entry at i may move back only if its home is not in (hole, i].
      const size_t home = Hash(slots_[i].key) & mask;
      if (((i - home) & mask) >= ((i - hole) & mask)) {
        slots_[hole] = std::move(slots_[i]);
        hole = i;
      }
    }
    slots_[hole] = Slot{};
    size_--;
    return true;
  }

  // Visits every populated entry in unspecified (but run-deterministic)
  // order. The callback must not insert.
  template <typename Fn>
  void ForEach(Fn&& fn) {
    for (Slot& slot : slots_) {
      if (slot.key != kEmptyKey) {
        fn(slot.key, slot.value);
      }
    }
  }
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Slot& slot : slots_) {
      if (slot.key != kEmptyKey) {
        fn(slot.key, slot.value);
      }
    }
  }

 private:
  static constexpr uint64_t kEmptyKey = ~0ULL;
  static constexpr size_t kMinSlots = 16;

  struct Slot {
    uint64_t key = kEmptyKey;
    V value{};
  };

  static uint64_t Hash(uint64_t x) {
    // splitmix64 finalizer: full-avalanche over sequential lbn keys.
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }

  Slot& Probe(uint64_t key) {
    const size_t mask = slots_.size() - 1;
    size_t i = Hash(key) & mask;
    while (slots_[i].key != key && slots_[i].key != kEmptyKey) {
      i = (i + 1) & mask;
    }
    return slots_[i];
  }

  void Rehash(size_t new_slots) {
    std::vector<Slot> old;
    old.swap(slots_);
    slots_.assign(new_slots, Slot{});
    for (Slot& slot : old) {
      if (slot.key != kEmptyKey) {
        Probe(slot.key) = std::move(slot);
      }
    }
  }

  std::vector<Slot> slots_;
  size_t size_ = 0;
};

// LBN-indexed map: a SparseTable directory keyed by lbn >> kPageBits points
// at fixed pages of kPageEntries entries. Pages live in a deque and never
// move once allocated, so a reference from Mut() stays valid across later
// inserts (until Clear()): a write path looks a block up once and updates
// it in place. Entries never set read as the fill value; V needs ==.
template <typename V>
class BlockMap {
 public:
  static constexpr unsigned kPageBits = 4;
  static constexpr uint64_t kPageEntries = uint64_t{1} << kPageBits;

  explicit BlockMap(V fill = V{}) : fill_(std::move(fill)) {}

  // Read without allocating: the fill value stands in for absent pages.
  const V& Get(uint64_t lbn) const {
    Page* const* page = dir_.Find(lbn >> kPageBits);
    return page == nullptr ? fill_ : (*page)->at[lbn & kPageMask];
  }

  // Write access; allocates a fill-initialized page on first touch.
  V& Mut(uint64_t lbn) {
    Page*& page = dir_.Upsert(lbn >> kPageBits);
    if (page == nullptr) {
      page = &pages_.emplace_back();
      page->at.fill(fill_);
    }
    return page->at[lbn & kPageMask];
  }

  // Visits every entry that differs from the fill value, in unspecified
  // (but run-deterministic) order. The callback must not insert.
  template <typename Fn>
  void ForEach(Fn&& fn) {
    dir_.ForEach([&](uint64_t page_no, Page* page) {
      for (uint64_t i = 0; i < kPageEntries; ++i) {
        if (!(page->at[i] == fill_)) {
          fn((page_no << kPageBits) | i, page->at[i]);
        }
      }
    });
  }
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    dir_.ForEach([&](uint64_t page_no, const Page* page) {
      for (uint64_t i = 0; i < kPageEntries; ++i) {
        if (!(page->at[i] == fill_)) {
          fn((page_no << kPageBits) | i, page->at[i]);
        }
      }
    });
  }

  void Clear() {
    dir_.Clear();
    pages_.clear();
  }

  uint64_t allocated_bytes() const {
    return dir_.allocated_bytes() + pages_.size() * sizeof(Page);
  }

 private:
  static constexpr uint64_t kPageMask = kPageEntries - 1;

  struct Page {
    std::array<V, kPageEntries> at;
  };

  V fill_;
  SparseTable<Page*> dir_;
  std::deque<Page> pages_;
};

}  // namespace biza

#endif  // BIZA_SRC_COMMON_SPARSE_ARRAY_H_
