// Configuration of the ZapRAID engine (log-structured group-based RAID).
#ifndef BIZA_SRC_ZAPRAID_ZAPRAID_CONFIG_H_
#define BIZA_SRC_ZAPRAID_ZAPRAID_CONFIG_H_

#include <cstdint>

namespace biza {

struct ZapRaidConfig {
  // Fraction of the array's data capacity exposed to users; the remainder
  // is over-provisioning for the log-structured write path and GC.
  double exposed_capacity_ratio = 0.70;

  // When true the constructor skips opening fresh groups; the caller must
  // invoke Recover(), which rebuilds the L2P and stripe metadata from the
  // per-block OOB stripe headers. Use this to attach a new engine instance
  // to devices that already hold data (host crash).
  bool recover_mode = false;
};

}  // namespace biza

#endif  // BIZA_SRC_ZAPRAID_ZAPRAID_CONFIG_H_
