// Stripe geometry for parity RAID.
//
// Maps logical stripes to per-drive chunk roles. RAID 5 uses the
// left-asymmetric layout (the paper's choice, §4.1): parity rotates from the
// last drive downwards; data chunks fill the remaining drives in ascending
// order. RAID 6 rotates P and Q together.
#ifndef BIZA_SRC_RAID_GEOMETRY_H_
#define BIZA_SRC_RAID_GEOMETRY_H_

#include <cassert>
#include <cstdint>

namespace biza {

struct StripeGeometry {
  int num_drives = 4;
  int num_parity = 1;        // 1 = RAID 5, 2 = RAID 6
  uint64_t chunk_blocks = 1; // blocks per chunk (paper: one 4 KiB block)

  int data_per_stripe() const { return num_drives - num_parity; }
  uint64_t stripe_data_blocks() const {
    return static_cast<uint64_t>(data_per_stripe()) * chunk_blocks;
  }

  // Drive index holding the p-th parity chunk of `stripe` (left-asymmetric).
  int ParityDrive(uint64_t stripe, int p = 0) const {
    assert(p < num_parity);
    const int base = num_drives - 1 -
                     static_cast<int>(stripe % static_cast<uint64_t>(num_drives));
    return (base + num_drives - p) % num_drives;
  }

  // Drive index holding the d-th data chunk of `stripe` (d in [0, k)).
  // Data fills drives in ascending order, skipping parity drives. The m
  // parity drives form one cyclic run ending at hi = ParityDrive(stripe).
  // It starts at lo = hi - m + 1; when lo < 0 it wraps past drive n-1 and
  // the data drives are the gap (hi, lo + n), otherwise [0, lo) and (hi, n).
  int DataDrive(uint64_t stripe, int d) const {
    assert(d >= 0 && d < data_per_stripe());
    const int hi = ParityDrive(stripe);
    const int lo = hi - num_parity + 1;
    if (lo < 0) {
      return hi + 1 + d;
    }
    return d < lo ? d : d + num_parity;
  }

  // Inverse of DataDrive: which data slot (0..k-1) does `drive` hold in
  // `stripe`? Returns -1 if the drive holds parity.
  int DataSlotOf(uint64_t stripe, int drive) const {
    const int hi = ParityDrive(stripe);
    const int lo = hi - num_parity + 1;
    if (lo < 0) {
      return drive > hi && drive < lo + num_drives ? drive - hi - 1 : -1;
    }
    if (drive < lo) {
      return drive;
    }
    return drive > hi ? drive - num_parity : -1;
  }

  // Address mapping for address-mapped RAID (mdraid): logical block ->
  // (stripe, data slot, block-within-chunk).
  struct BlockLocation {
    uint64_t stripe;
    int data_slot;
    uint64_t block_in_chunk;
  };
  BlockLocation Locate(uint64_t lbn) const {
    BlockLocation loc;
    loc.stripe = lbn / stripe_data_blocks();
    const uint64_t in_stripe = lbn % stripe_data_blocks();
    loc.data_slot = static_cast<int>(in_stripe / chunk_blocks);
    loc.block_in_chunk = in_stripe % chunk_blocks;
    return loc;
  }
};

}  // namespace biza

#endif  // BIZA_SRC_RAID_GEOMETRY_H_
