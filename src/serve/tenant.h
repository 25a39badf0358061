// Tenant model for the multi-tenant serving frontend (DESIGN.md §7).
//
// A tenant is one class of users bucketed together: an open-loop arrival
// process (src/workload/arrival.h), a block-request mix, and an SLO spec
// that drives admission weight and hedging policy. Three built-in classes
// cover the production triangle:
//
//   latency    — small reads, steady arrivals, aggressive hedging, high
//                admission weight. The tenant whose p99.9 the array sells.
//   throughput — medium mixed I/O with a diurnal ramp, moderate weight,
//                conservative hedging.
//   batch      — large writes in bursts, lowest weight, no hedging, first
//                to shed load when the array is under gray pressure.
//
// TenantSet assigns each tenant a private contiguous LBA region of the
// footprint so per-tenant working sets do not alias.
#ifndef BIZA_SRC_SERVE_TENANT_H_
#define BIZA_SRC_SERVE_TENANT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/sim/simulator.h"
#include "src/workload/arrival.h"

namespace biza {

enum class TenantClass : uint8_t { kLatency = 0, kThroughput = 1, kBatch = 2 };

const char* TenantClassName(TenantClass cls);

// Per-tenant service-level policy: what the class pays for.
struct SloSpec {
  // Hedge policy for reads (armed only when QoS is on). quantile <= 0
  // disables hedging for the tenant. The hedge delay is
  // hedge_multiplier x the quantile of recent array read latencies
  // (DeviceHealthMonitor::PooledReadQuantileNs when a monitor is attached,
  // else the tenant's own observed service latencies), floored at 20 us.
  double hedge_quantile = 0.0;
  double hedge_multiplier = 2.0;

  // Deficit-round-robin admission weight (byte-proportional share).
  uint32_t weight = 1;

  // Per-tenant in-flight request cap under DRR admission (0 = uncapped).
  uint64_t inflight_cap = 0;

  // While any array member is gray, the effective in-flight cap is scaled
  // by this factor (rounded up, min 1). < 1 sheds the tenant's load so
  // latency-class tenants keep headroom during mitigation; 1 = never shed.
  double gray_shed_factor = 1.0;
};

struct TenantSpec {
  std::string name;
  TenantClass cls = TenantClass::kThroughput;
  ArrivalSpec arrival;

  // Request mix: reads with probability read_fraction, uniform random
  // offsets aligned to request_blocks inside the tenant's private region.
  double read_fraction = 0.5;
  uint64_t request_blocks = 4;  // 16 KiB

  SloSpec slo;

  // Class presets: arrival shape, request mix, and SLO policy per class.
  // `iops` is the long-run average arrival rate; `weight` 0 keeps the class
  // default weight.
  static TenantSpec ForClass(TenantClass cls, std::string name, double iops,
                             uint32_t weight = 0);
};

// Parses a comma-separated tenant list: "class[:weight[:iops]],..." where
// class is latency|throughput|batch (unambiguous prefixes accepted, e.g.
// "lat:4:2000,batch:1:8000"). Returns false on malformed input. Tenants are
// named "<class><index>".
bool ParseTenantList(const std::string& text, std::vector<TenantSpec>* out);

// The tenants of one serving experiment. Owns the specs and derives the
// deterministic per-tenant seeds and LBA regions.
class TenantSet {
 public:
  TenantSet(std::vector<TenantSpec> specs, uint64_t seed);

  size_t size() const { return specs_.size(); }
  const TenantSpec& spec(size_t i) const { return specs_[i]; }

  // Splits [0, footprint_blocks) into equal contiguous per-tenant regions,
  // each aligned down to the tenant's request size.
  struct Region {
    uint64_t start = 0;
    uint64_t blocks = 0;
  };
  std::vector<Region> AssignRegions(uint64_t footprint_blocks) const;

  // Deterministic sub-seed for tenant i (arrivals and request mix draw from
  // independent streams so adding a tenant never perturbs another's
  // sequence).
  uint64_t ArrivalSeed(size_t i) const;
  uint64_t WorkloadSeed(size_t i) const;

 private:
  std::vector<TenantSpec> specs_;
  uint64_t seed_;
};

}  // namespace biza

#endif  // BIZA_SRC_SERVE_TENANT_H_
