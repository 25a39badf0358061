// Configuration of the BIZA array engine.
#ifndef BIZA_SRC_BIZA_BIZA_CONFIG_H_
#define BIZA_SRC_BIZA_BIZA_CONFIG_H_

#include <cstdint>

#include "src/biza/channel_detector.h"
#include "src/biza/ghost_cache.h"

namespace biza {

struct BizaConfig {
  // Fault-tolerance degree m: 1 = RAID 5 (XOR parity, the paper's default),
  // 2 = RAID 6 (Reed-Solomon P+Q), higher values also work. Stripes carry
  // k = num_ssds - m data chunks.
  int num_parity = 1;

  // Fraction of the array's data capacity exposed to users; the remainder
  // is over-provisioning for the log-structured write path and GC.
  double exposed_capacity_ratio = 0.70;

  // Ablations (Fig. 14 / Fig. 15).
  bool enable_selector = true;       // false = BIZAw/oSelector
  bool enable_gc_avoidance = true;   // false = BIZAw/oAvoid

  GhostCacheConfig ghost;  // hp_reuse_threshold is derived if left 0
  ChannelDetectorConfig detector;

  // Zones per device confirmed by the start-up zone-to-zone diagnosis.
  int diagnosis_confirmed_zones = 2;

  double gc_trigger_free_ratio = 0.20;
  double gc_stop_free_ratio = 0.28;

  // When true the constructor skips opening the initial zone groups; the
  // caller must invoke Recover(), which rebuilds state from the devices'
  // OOB records and then opens fresh groups. Use this to attach a new
  // engine instance to devices that already hold data (host crash).
  bool recover_mode = false;
};

}  // namespace biza

#endif  // BIZA_SRC_BIZA_BIZA_CONFIG_H_
