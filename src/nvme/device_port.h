// The host interface of one simulated SSD, shared by ZnsDevice and ConvSsd:
// the path a data-plane command takes from submission to the device handler
// and from its completion back to the host, the fault-plane hooks on that
// path, and the device RNG.
//
// A device runs each command's handler at AtArrival and hands its result to
// Complete (or Fail, for an error) exactly once. The port takes handler and
// completion closures as they are, never wrapped: one that fits an
// InlineCallback allocates nothing on either path.
#ifndef BIZA_SRC_NVME_DEVICE_PORT_H_
#define BIZA_SRC_NVME_DEVICE_PORT_H_

#include <cstdint>
#include <functional>
#include <string>
#include <utility>

#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/common/units.h"
#include "src/fault/fault_injector.h"
#include "src/metrics/stat_registry.h"
#include "src/nvme/nvme_queue.h"
#include "src/sim/callback.h"
#include "src/sim/simulator.h"

namespace biza {

// How commands cross a simulated SSD's host interface. Both paths carry
// benchmark traffic:
//
// * Legacy (nvme.enabled == false, the default): a command reaches the
//   device DevicePort::kDispatchBaseNs + U[0, dispatch_jitter_ns) after
//   submission, and each completion is its own event. The jitter reorders
//   in-flight commands as the Linux block layer and NVMe host stack do
//   (§3.2); queue depth, queue count and batching are not modelled. Most
//   figure benches and golden fingerprints, and perfbench's casa_fullgeo
//   and tencent_zapraid, run this path.
// * NVMe queue pairs (nvme.enabled): submissions ride doorbell batches,
//   round-robin arbitration and SQE fetch order set the dispatch delay, and
//   completions ride coalesced interrupts (src/nvme/nvme_queue.h).
//   dispatch_jitter_ns is ignored and dispatch draws nothing from the device
//   RNG. perfbench's serve_read, afa_bench --queues and bench/nvme_frontend
//   run this path.
struct HostInterfaceConfig {
  SimTime dispatch_jitter_ns = 8 * kMicrosecond;
  NvmeQueueConfig nvme;
};

class DevicePort {
 public:
  // `seed` seeds the device RNG, which draws the legacy jitter and whatever
  // the device borrows it for (rng()).
  DevicePort(Simulator* sim, const HostInterfaceConfig& config, uint64_t seed)
      : sim_(sim),
        jitter_ns_(config.dispatch_jitter_ns),
        nvmeq_(sim, config.nvme, kDispatchBaseNs),
        rng_(seed) {}
  // Counter probes hold the port's address, and queue-pair events its
  // queue pair's.
  DevicePort(const DevicePort&) = delete;
  DevicePort& operator=(const DevicePort&) = delete;

  // Runs the device handler `fn` when the command reaches the device.
  template <typename F>
  void AtArrival(F&& fn) {
    if (nvmeq_.enabled()) {
      nvmeq_.Submit(InlineCallback(std::forward<F>(fn)));
      return;
    }
    SimTime delay = kDispatchBaseNs;
    if (jitter_ns_ > 0) {
      delay += rng_.Uniform(jitter_ns_);
    }
    sim_->Schedule(delay, std::forward<F>(fn));
  }

  // Delivers a completion to the host at `when`: its own event on the legacy
  // path, a CQE on the queue pairs.
  template <typename F>
  void Complete(SimTime when, F&& fn) {
    if (nvmeq_.enabled()) {
      nvmeq_.Complete(when, InlineCallback(std::forward<F>(fn)));
      return;
    }
    sim_->ScheduleAt(when, std::forward<F>(fn));
  }

  // Error completion with zero device-side latency: `cb` (moved from) gets
  // `status` and empty results. Legacy path: it runs inline. Queue pairs: it
  // posts a CQE like any completion (real NVMe error completions are
  // interrupt-coalesced too).
  template <typename... Results>
  void Fail(std::function<void(const Status&, Results...)>& cb,
            Status status) {
    auto fn = [cb = std::move(cb), status = std::move(status)] {
      cb(status, Results{}...);
    };
    if (nvmeq_.enabled()) {
      nvmeq_.Complete(sim_->Now(), InlineCallback(std::move(fn)));
      return;
    }
    fn();
  }

  // Interposes `injector` on every command; `device_id` names the device in
  // the injector's fault plan. nullptr detaches.
  void AttachFaultInjector(FaultInjector* injector, int device_id) {
    fault_ = injector;
    fault_device_id_ = device_id;
  }

  // At command arrival: non-OK when the fault plan fails the command.
  Status FaultCheck(IoKind kind) {
    return fault_ != nullptr
               ? fault_->OnIo(fault_device_id_, kind, sim_->Now())
               : OkStatus();
  }
  // Admin commands: kUnavailable once the device is dead.
  Status CheckAlive() const {
    if (fault_ != nullptr && fault_->IsDead(fault_device_id_, sim_->Now())) {
      return UnavailableError("device dead");
    }
    return OkStatus();
  }
  // Completion time `done` of an I/O on `channel` (-1: no channel),
  // stretched by the fault plan's fail-slow multipliers.
  SimTime Stretch(int channel, SimTime done) const {
    return fault_ != nullptr
               ? fault_->StretchCompletion(fault_device_id_, channel, done,
                                           sim_->Now())
               : done;
  }

  // Registers "<prefix>nvme.{doorbells,interrupts,qd_stalls}" when the queue
  // pairs are on.
  void RegisterCounters(StatRegistry& reg, const std::string& prefix) const {
    if (!nvmeq_.enabled()) {
      return;
    }
    reg.RegisterCounter(prefix + "nvme.doorbells",
                        [this] { return nvmeq_.stats().doorbells; });
    reg.RegisterCounter(prefix + "nvme.interrupts",
                        [this] { return nvmeq_.stats().interrupts; });
    reg.RegisterCounter(prefix + "nvme.qd_stalls",
                        [this] { return nvmeq_.stats().qd_stalls; });
  }

  // The queue pairs (inert unless nvme.enabled).
  const NvmeQueuePair& queue() const { return nvmeq_; }
  Rng& rng() { return rng_; }

 private:
  // Legacy dispatch base and the queue pairs' doorbell delay.
  static constexpr SimTime kDispatchBaseNs = 2 * kMicrosecond;

  Simulator* sim_;
  SimTime jitter_ns_;
  NvmeQueuePair nvmeq_;
  Rng rng_;
  FaultInjector* fault_ = nullptr;
  int fault_device_id_ = -1;
};

}  // namespace biza

#endif  // BIZA_SRC_NVME_DEVICE_PORT_H_
