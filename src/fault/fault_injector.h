// Deterministic, seeded fault-injection plane for simulated devices.
//
// One FaultInjector per Simulator interposes on every device I/O. Devices
// that get an injector attached (ZnsDevice, ConvSsd) consult it at command
// arrival — after the dispatch delay, i.e. at the moment the command would
// touch media — and again when computing the completion time:
//
//   * Whole-device death at simulated time T: every I/O arriving at or after
//     T fails with kUnavailable. Death is permanent until ClearDeviceFaults()
//     (used when a replacement device takes over the slot).
//   * Transient errors: per-device Bernoulli rates for reads and writes drawn
//     from a per-device RNG stream, plus scripted one-shot error queues
//     (AddWriteErrors / AddReadErrors) for deterministic tests such as the
//     torn-stripe crash case. Transient errors fail with kDeviceError, which
//     IsRetriable() accepts — engines retry with bounded backoff.
//   * Fail-slow: per-device and per-channel latency multipliers stretch the
//     media portion of each completion time. The excess over the healthy
//     span is serialized through a per-device recovery lane, so concurrent
//     I/O convoys behind a slow device (see StretchCompletion); multipliers
//     may also vary over time (SetFailSlowRamp / SetFailSlowDuty).
//
// Determinism: each device gets its own RNG stream seeded from (seed,
// device), so injection decisions depend only on the per-device I/O order —
// which the single-threaded Simulator already makes deterministic — never on
// cross-device interleaving or host thread count.
//
// Crash points are not the injector's job: a crash is simulated by running
// the event loop to the chosen instant (Simulator::RunUntil) and discarding
// everything still in flight (Simulator::DropPending) — see
// tests/crash_recovery_test.cc. The injector only supplies the fault
// schedule leading up to the crash.
#ifndef BIZA_SRC_FAULT_FAULT_INJECTOR_H_
#define BIZA_SRC_FAULT_FAULT_INJECTOR_H_

#include <cstdint>
#include <map>
#include <vector>

#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/common/units.h"

namespace biza {

enum class IoKind { kRead, kWrite };

// Scripted per-device fault schedule, wired through PlatformConfig /
// afa_bench flags. All fields default to "healthy".
struct DeviceFaultSpec {
  SimTime die_at = 0;              // device dies at this time; 0 = never
  double latency_mult = 1.0;       // fail-slow multiplier (>= 1.0)
  double read_error_prob = 0.0;    // transient read-error probability
  double write_error_prob = 0.0;   // transient write-error probability

  // Time-varying fail-slow shapes (exercise detector hysteresis; constant
  // multipliers make detection trivial). Both modulate latency_mult and are
  // pure functions of `now`.
  //  * Ramp: mult grows linearly from 1.0 at ramp_start to latency_mult at
  //    ramp_start + ramp_duration (then holds). ramp_duration = 0 disables.
  SimTime ramp_start = 0;
  SimTime ramp_duration = 0;
  //  * Duty cycle: the stretch applies only during the first duty_on ns of
  //    each duty_period (intermittent on/off). duty_period = 0 disables.
  SimTime duty_period = 0;
  SimTime duty_on = 0;

  // The multiplier in force at `now`, after ramp and duty-cycle shaping.
  double EffectiveMult(SimTime now) const;
};

struct FaultPlan {
  uint64_t seed = 1;
  // Indexed by device id; devices beyond the vector are healthy.
  std::vector<DeviceFaultSpec> devices;

  bool empty() const { return devices.empty(); }
  DeviceFaultSpec& Device(int device) {
    if (static_cast<size_t>(device) >= devices.size()) {
      devices.resize(static_cast<size_t>(device) + 1);
    }
    return devices[static_cast<size_t>(device)];
  }
};

struct FaultStats {
  uint64_t injected_read_errors = 0;
  uint64_t injected_write_errors = 0;
  uint64_t unavailable_rejections = 0;  // I/Os bounced off a dead device
};

class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan = {});

  // ---- schedule manipulation (tests and tools) ----

  void KillDeviceAt(int device, SimTime when);
  void SetFailSlow(int device, double latency_mult);
  // Fail-slow that ramps linearly from 1.0 at `start` to `latency_mult` at
  // `start + duration`, then holds.
  void SetFailSlowRamp(int device, double latency_mult, SimTime start,
                       SimTime duration);
  // Intermittent fail-slow: `latency_mult` during the first `on` ns of each
  // `period`, healthy for the rest.
  void SetFailSlowDuty(int device, double latency_mult, SimTime period,
                       SimTime on);
  void SetFailSlowChannel(int device, int channel, double latency_mult);
  void SetErrorRates(int device, double read_prob, double write_prob);
  // Scripted one-shot errors: the next `count` writes (or reads) hitting
  // `device` fail with kDeviceError. Consumed before probabilistic rates.
  void AddWriteErrors(int device, int count);
  void AddReadErrors(int device, int count);
  // Forgets all faults for `device` — used when a fresh replacement device
  // takes over a dead member's slot.
  void ClearDeviceFaults(int device);

  // ---- device-facing hooks ----

  // Consulted at command arrival (post dispatch delay), at simulated time
  // `now`. Returns non-OK if the command must fail: kUnavailable once the
  // device is dead, kDeviceError for a transient fault.
  Status OnIo(int device, IoKind kind, SimTime now);

  // True once `device` is dead at simulated time `now`.
  bool IsDead(int device, SimTime now) const;

  // Stretches the media span of a completion. The excess over the nominal
  // span models serialized internal recovery work (retries, read-level
  // shifts), so it occupies a single per-device recovery lane: one
  // outstanding I/O sees exactly now + (done - now) * mult, while
  // concurrent I/O on a fail-slow device convoys behind the lane — the
  // queue-amplified tail that makes gray failure an array-wide problem.
  // `channel` < 0 means "no channel attribution" (e.g. ConvSsd internals).
  SimTime StretchCompletion(int device, int channel, SimTime done,
                            SimTime now) const;

  // Aggregated over all devices.
  FaultStats stats() const;

 private:
  struct DeviceState {
    DeviceFaultSpec spec;
    std::map<int, double> channel_mult;  // channel -> extra multiplier
    int pending_write_errors = 0;
    int pending_read_errors = 0;
    // Recovery-lane occupancy (see StretchCompletion). Mutable because the
    // stretch hook is logically const.
    mutable SimTime slow_busy_until = 0;
    Rng rng;
    FaultStats stats;

    explicit DeviceState(uint64_t seed) : rng(seed) {}
  };

  DeviceState& StateFor(int device);
  const DeviceState* FindState(int device) const;

  uint64_t seed_;
  std::vector<DeviceState> devices_;
};

}  // namespace biza

#endif  // BIZA_SRC_FAULT_FAULT_INJECTOR_H_
