// Multi-tenant serving frontend: open-loop tenant arrivals -> QoS-aware
// admission -> the engine path (DESIGN.md §7).
//
// The frontend sits where a serving tier sits in production: between the
// users (TenantSet arrival processes) and the array (any BlockTarget —
// BIZA, mdraid, RAIZN bridge). Each virtual-time arrival is stamped with
// its intended time, queued in the AdmissionQueue, and dispatched while the
// global in-flight window has room. All latencies are measured from the
// intended arrival (the coordinated-omission rule the Driver follows), so
// admission delay is visible in the tail, and reported separately as
// queue_delay.
//
// With QoS armed (`ServeConfig::qos`):
//   * reads of tenants with an SLO hedge policy get a duplicate read after
//     a hedge delay derived from recent array read latencies
//     (DeviceHealthMonitor::PooledReadQuantileNs when a monitor is
//     attached, else the tenant's own observed service quantile) — first
//     completion wins, the admission slot is held until both land;
//   * while any array member is gray, tenants with gray_shed_factor < 1
//     have their in-flight caps scaled down so mitigation headroom goes to
//     the latency class (composes with the engines' own
//     ZoneScheduler::SetInflightCap gray throttle underneath).
//
// Determinism: arrivals are pure functions of (seed, tenant index); request
// content draws from a per-tenant RNG in arrival order; everything else is
// simulator-event driven. Runs are bit-identical per seed, and the
// per-tenant arrival fingerprint does not depend on the device frontend.
#ifndef BIZA_SRC_SERVE_SERVE_FRONTEND_H_
#define BIZA_SRC_SERVE_SERVE_FRONTEND_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/histogram.h"
#include "src/common/rng.h"
#include "src/engines/target.h"
#include "src/health/device_health.h"
#include "src/metrics/observability.h"
#include "src/serve/admission.h"
#include "src/serve/tenant.h"
#include "src/sim/simulator.h"
#include "src/workload/driver.h"

namespace biza {

struct ServeConfig {
  std::vector<TenantSpec> tenants;
  AdmissionPolicy policy = AdmissionPolicy::kDrr;
  // Global in-flight cap into the target (the serving tier's iodepth).
  uint64_t iodepth = 64;
  // Arms SLO hedging and gray-pressure shedding.
  bool qos = false;
  // LBA span split into per-tenant regions; 0 = target capacity / 2. The
  // caller prefills this span (Driver::Fill) so reads hit written blocks.
  uint64_t footprint_blocks = 0;
  uint64_t seed = 1;
  SimTime duration_ns = kSecond;
};

struct TenantReport {
  std::string name;
  TenantClass cls = TenantClass::kThroughput;
  // Latencies measured from intended arrival; queue_delay is the admission
  // share (same contract as the open-loop Driver).
  DriverReport report;
  uint64_t arrivals = 0;
  uint64_t hedged_reads = 0;
  uint64_t hedge_wins = 0;  // the hedge copy completed first
  // Admission pops skipped because the tenant sat at its (possibly
  // gray-shed) in-flight cap.
  uint64_t cap_deferrals = 0;
};

class ServeFrontend {
 public:
  ServeFrontend(Simulator* sim, BlockTarget* target, ServeConfig config);

  // Optional: seed hedge delays from the health plane and enable
  // gray-pressure shedding (QoS must also be armed via config).
  void AttachHealth(DeviceHealthMonitor* health) { health_ = health; }

  // Registers per-tenant serve.<name>.* counters/gauges and caches
  // histogram pointers. Call before Run.
  void AttachObservability(Observability* obs);

  // Generates arrivals for duration_ns of virtual time, drains, and returns
  // one report per tenant. Pumps the simulator. Single-shot.
  std::vector<TenantReport> Run();

  // FNV-1a over tenant i's arrival timestamps of the last Run — the
  // determinism witness tests compare across seeds and device frontends.
  uint64_t ArrivalFingerprint(size_t i) const;

  const ServeConfig& config() const { return config_; }

 private:
  static constexpr SimTime kHedgeFloorNs = 20000;  // never hedge sooner (20 us)

  struct ReadState {
    int tenant = 0;
    SimTime arrival = 0;
    SimTime issue = 0;
    uint64_t bytes = 0;
    int outstanding = 1;
    bool done = false;
  };

  struct TenantRuntime {
    TenantSet::Region region;
    std::unique_ptr<ArrivalProcess> arrivals;
    Rng rng{1};
    TenantReport report;
    // Service-time histogram (issue -> completion, no queue delay): the
    // self-seeded hedge-delay source when no health plane is attached.
    LatencyHistogram service_read;
    SimTime self_hedge_base = 0;
    uint64_t reads_since_refresh = 0;
    uint64_t fingerprint = 14695981039346656037ULL;  // FNV-1a offset basis
    LatencyHistogram* obs_read = nullptr;
    LatencyHistogram* obs_write = nullptr;
    LatencyHistogram* obs_queue = nullptr;
  };

  void OnArrival(size_t tenant_index);
  void ScheduleNextArrival(size_t tenant_index);
  void Pump();
  void Dispatch(ServeRequest request);
  void DispatchRead(const ServeRequest& request);
  void FinishReadCopy(const std::shared_ptr<ReadState>& state, bool is_hedge,
                      const Status& status);
  SimTime HedgeDelayFor(const TenantRuntime& tenant) const;
  bool UnderGrayPressure() const;

  Simulator* sim_;
  BlockTarget* target_;
  ServeConfig config_;
  TenantSet tenant_set_;
  AdmissionQueue queue_;
  DeviceHealthMonitor* health_ = nullptr;
  std::vector<TenantRuntime> tenants_;
  std::vector<SimTime> next_arrival_;
  uint64_t epoch_ = 0;  // write-pattern epoch, monotonically increasing
  SimTime start_ = 0;
  SimTime deadline_ = 0;
  SimTime last_completion_ = 0;
  bool in_pump_ = false;
};

}  // namespace biza

#endif  // BIZA_SRC_SERVE_SERVE_FRONTEND_H_
