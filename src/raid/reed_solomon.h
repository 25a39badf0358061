// Systematic Reed-Solomon erasure codec over GF(2^8).
//
// Encodes k data symbols into m parity symbols; any k of the k+m survive a
// loss of up to m symbols and reconstruct the rest. m == 2 is RAID 6 P+Q.
//
// RS(k, 1) is NOT XOR parity: its one parity row carries the systematic
// matrix's coefficients, which are all one only for some k (1, 3 and 7 up to
// 12). RAID 5 — BIZA's m = 1 stripes, mdraid, ZapRAID and RAIZN — encodes
// with XorParity below and decodes with XOR, never with this codec.
//
// The coding matrix is the Vandermonde matrix made systematic by Gaussian
// elimination, the standard construction (Plank '97) used by jerasure and
// ISA-L. Payloads here are 64-bit block "patterns" (the simulator stores a
// pattern per 4 KiB block); the codec operates bytewise over the 8 bytes, so
// reconstruction really verifies end-to-end.
#ifndef BIZA_SRC_RAID_REED_SOLOMON_H_
#define BIZA_SRC_RAID_REED_SOLOMON_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/common/status.h"

namespace biza {

class ReedSolomon {
 public:
  // k data shards, m parity shards. Requires k >= 1, m >= 1, k + m <= 255.
  ReedSolomon(int k, int m);

  int k() const { return k_; }
  int m() const { return m_; }

  // data.size() == k; returns m parity patterns.
  std::vector<uint64_t> EncodePatterns(std::span<const uint64_t> data) const;

  // Reconstructs missing shards in place. `shards` has k + m entries (data
  // first, then parity); `present[i]` says whether shards[i] survived.
  // Fails with kDataLoss if more than m shards are missing.
  Status ReconstructPatterns(std::span<uint64_t> shards,
                             const std::vector<bool>& present) const;

  // Bytewise variants operating over arbitrary-length shards (each shard is
  // `len` bytes; shard pointers must not alias).
  void EncodeBytes(const uint8_t* const* data, uint8_t* const* parity,
                   size_t len) const;

  // Incremental parity maintenance (linearity of the code): returns the new
  // pattern of parity row `row` after data slot `slot` changes from
  // `old_data` to `new_data`. It matches RAID 5's p' = p ^ old ^ new only
  // where the row's coefficient is one, so XOR stripes update by XOR.
  uint64_t UpdateParityPattern(int row, int slot, uint64_t old_parity,
                               uint64_t old_data, uint64_t new_data) const;

 private:
  // coding_[row][col]: parity row `row` is sum over data cols of
  // coding_[row][col] * data[col].
  std::vector<std::vector<uint8_t>> coding_;
  int k_;
  int m_;
};

// XOR parity helpers (the RAID 5 hot path; also BIZA's partial parity).
inline uint64_t XorParity(std::span<const uint64_t> data) {
  uint64_t parity = 0;
  for (uint64_t d : data) {
    parity ^= d;
  }
  return parity;
}

}  // namespace biza

#endif  // BIZA_SRC_RAID_REED_SOLOMON_H_
