// Host CPU cost accounting (powers the Fig. 17 reproduction).
//
// The simulator has no real CPU, so each engine charges a modelled cost (in
// simulated ns of CPU work) per operation into its own account;
// Platform::CpuBreakdown names the components. CPU usage% over an interval
// = charged_ns / interval_ns * 100 (one account may exceed 100% of a core,
// as with multi-threaded mdraid).
//
// The cost constants are calibrated to the *relative* message of Fig. 17:
// dm-zap's single-in-flight spinlock burns the wait time as CPU (it spins),
// parity XOR costs scale with bytes, and per-request fixed costs model bio
// handling. Absolute cycle counts are not the target; component ranking and
// CPU-efficiency ordering are.
#ifndef BIZA_SRC_METRICS_CPU_ACCOUNT_H_
#define BIZA_SRC_METRICS_CPU_ACCOUNT_H_

#include <cstdint>

#include "src/common/units.h"

namespace biza {

// Modelled per-operation CPU costs, one table for every engine (kCpuCosts).
struct CpuCostModel {
  SimTime request_overhead_ns = 1500;   // bio/request handling per request
  SimTime map_lookup_ns = 120;          // one mapping-table lookup
  SimTime map_update_ns = 180;          // one mapping-table update
  SimTime parity_xor_ns_per_kib = 60;   // XOR/RS compute per KiB
  SimTime ghost_cache_op_ns = 250;      // LRU/HR/HP bookkeeping per chunk
  SimTime scheduler_op_ns = 300;        // sliding-window bookkeeping per chunk
  SimTime stripe_cache_op_ns = 350;     // mdraid stripe-cache handling
};

inline constexpr CpuCostModel kCpuCosts{};

class CpuAccount {
 public:
  void Charge(SimTime ns) { total_ += ns; }

  SimTime total() const { return total_; }

  // Average CPU usage in percent of one core over `interval_ns`.
  double UsagePercent(SimTime interval_ns) const {
    if (interval_ns == 0) {
      return 0.0;
    }
    return static_cast<double>(total_) / static_cast<double>(interval_ns) * 100.0;
  }

  void Reset() { total_ = 0; }

 private:
  SimTime total_ = 0;
};

}  // namespace biza

#endif  // BIZA_SRC_METRICS_CPU_ACCOUNT_H_
