// Configuration of the BIZA array engine.
#ifndef BIZA_SRC_BIZA_BIZA_CONFIG_H_
#define BIZA_SRC_BIZA_BIZA_CONFIG_H_

#include <cstdint>

#include "src/biza/channel_detector.h"
#include "src/biza/ghost_cache.h"
#include "src/metrics/cpu_account.h"
#include "src/common/units.h"

namespace biza {

struct BizaConfig {
  // Fault-tolerance degree m: 1 = RAID 5 (XOR parity, the paper's default),
  // 2 = RAID 6 (Reed-Solomon P+Q), higher values also work. Stripes carry
  // k = num_ssds - m data chunks.
  int num_parity = 1;

  // Fraction of the array's data capacity exposed to users; the remainder
  // is over-provisioning for the log-structured write path and GC.
  double exposed_capacity_ratio = 0.70;

  // Open-zone budget per device, split across zone groups (§4.2). The sum
  // must not exceed the device's max_open_zones.
  int zrwa_group_zones = 3;     // high-profit chunks
  int gc_aware_group_zones = 3; // high-revenue chunks
  int trivial_group_zones = 3;  // everything else
  int parity_group_zones = 2;   // stripe parities (always ZRWA-reserved)
  int gc_dest_zones = 2;        // GC migration destinations ("GC-interfered")

  // Ablations (Fig. 14 / Fig. 15).
  bool enable_selector = true;       // false = BIZAw/oSelector
  bool enable_gc_avoidance = true;   // false = BIZAw/oAvoid

  GhostCacheConfig ghost;  // hp_reuse_threshold is derived if left 0
  ChannelDetectorConfig detector;

  // Zones per device confirmed by the start-up zone-to-zone diagnosis.
  int diagnosis_confirmed_zones = 2;

  double gc_trigger_free_ratio = 0.20;
  double gc_stop_free_ratio = 0.28;
  // GC and rebuild read contiguous victim blocks with one device command
  // per run, and re-home a batch's data chunks through one gather write.
  uint64_t gc_batch_blocks = 16;

  // Free zones per device reserved for GC destinations and stripe parity;
  // data-group replenishment never takes them, so GC always has room to
  // migrate into and stripes always get a parity block.
  uint64_t reserved_zones = 3;

  // When true the constructor skips opening the initial zone groups; the
  // caller must invoke Recover(), which rebuilds state from the devices'
  // OOB records and then opens fresh groups. Use this to attach a new
  // engine instance to devices that already hold data (host crash).
  bool recover_mode = false;

  // Online-rebuild throttle: the rebuilder reconstructs up to
  // rebuild_batch_stripes stripes, then yields the array for
  // rebuild_interval_ns before the next batch, bounding its interference
  // with foreground I/O.
  uint64_t rebuild_batch_stripes = 64;
  SimTime rebuild_interval_ns = 200 * kMicrosecond;

  CpuCostModel costs;
};

}  // namespace biza

#endif  // BIZA_SRC_BIZA_BIZA_CONFIG_H_
