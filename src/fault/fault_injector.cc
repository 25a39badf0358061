#include "src/fault/fault_injector.h"

#include <string>

namespace biza {

double DeviceFaultSpec::EffectiveMult(SimTime now) const {
  double mult = latency_mult;
  if (mult <= 1.0) {
    return mult;
  }
  if (ramp_duration > 0) {
    if (now <= ramp_start) {
      return 1.0;
    }
    if (now < ramp_start + ramp_duration) {
      const double frac = static_cast<double>(now - ramp_start) /
                          static_cast<double>(ramp_duration);
      mult = 1.0 + frac * (mult - 1.0);
    }
  }
  if (duty_period > 0 && now % duty_period >= duty_on) {
    return 1.0;  // off phase of the duty cycle
  }
  return mult;
}

FaultInjector::FaultInjector(FaultPlan plan) : seed_(plan.seed) {
  for (size_t d = 0; d < plan.devices.size(); ++d) {
    StateFor(static_cast<int>(d)).spec = plan.devices[d];
  }
}

FaultInjector::DeviceState& FaultInjector::StateFor(int device) {
  while (devices_.size() <= static_cast<size_t>(device)) {
    // Per-device RNG streams: decisions for one device never consume random
    // numbers from another's stream, so adding faults to device A cannot
    // perturb device B's schedule.
    const uint64_t stream_seed =
        seed_ * 0x9E3779B97F4A7C15ULL + devices_.size() + 1;
    devices_.emplace_back(DeviceState(stream_seed));
  }
  return devices_[static_cast<size_t>(device)];
}

const FaultInjector::DeviceState* FaultInjector::FindState(int device) const {
  if (device < 0 || static_cast<size_t>(device) >= devices_.size()) {
    return nullptr;
  }
  return &devices_[static_cast<size_t>(device)];
}

void FaultInjector::KillDeviceAt(int device, SimTime when) {
  StateFor(device).spec.die_at = when;
}

void FaultInjector::SetFailSlow(int device, double latency_mult) {
  StateFor(device).spec.latency_mult = latency_mult;
}

void FaultInjector::SetFailSlowRamp(int device, double latency_mult,
                                    SimTime start, SimTime duration) {
  DeviceState& state = StateFor(device);
  state.spec.latency_mult = latency_mult;
  state.spec.ramp_start = start;
  state.spec.ramp_duration = duration;
}

void FaultInjector::SetFailSlowDuty(int device, double latency_mult,
                                    SimTime period, SimTime on) {
  DeviceState& state = StateFor(device);
  state.spec.latency_mult = latency_mult;
  state.spec.duty_period = period;
  state.spec.duty_on = on;
}

void FaultInjector::SetFailSlowChannel(int device, int channel,
                                       double latency_mult) {
  StateFor(device).channel_mult[channel] = latency_mult;
}

void FaultInjector::SetErrorRates(int device, double read_prob,
                                  double write_prob) {
  DeviceState& state = StateFor(device);
  state.spec.read_error_prob = read_prob;
  state.spec.write_error_prob = write_prob;
}

void FaultInjector::AddWriteErrors(int device, int count) {
  StateFor(device).pending_write_errors += count;
}

void FaultInjector::AddReadErrors(int device, int count) {
  StateFor(device).pending_read_errors += count;
}

void FaultInjector::ClearDeviceFaults(int device) {
  if (FindState(device) == nullptr) {
    return;
  }
  DeviceState& state = StateFor(device);
  state.spec = DeviceFaultSpec{};
  state.channel_mult.clear();
  state.pending_write_errors = 0;
  state.pending_read_errors = 0;
}

bool FaultInjector::IsDead(int device, SimTime now) const {
  const DeviceState* state = FindState(device);
  return state != nullptr && state->spec.die_at != 0 &&
         now >= state->spec.die_at;
}

Status FaultInjector::OnIo(int device, IoKind kind, SimTime now) {
  if (FindState(device) == nullptr) {
    return OkStatus();
  }
  DeviceState& state = StateFor(device);
  if (IsDead(device, now)) {
    state.stats.unavailable_rejections++;
    return UnavailableError("device " + std::to_string(device) + " dead");
  }
  if (kind == IoKind::kWrite) {
    if (state.pending_write_errors > 0) {
      state.pending_write_errors--;
      state.stats.injected_write_errors++;
      return DeviceErrorStatus("scripted write error");
    }
    if (state.spec.write_error_prob > 0.0 &&
        state.rng.Chance(state.spec.write_error_prob)) {
      state.stats.injected_write_errors++;
      return DeviceErrorStatus("transient write error");
    }
  } else {
    if (state.pending_read_errors > 0) {
      state.pending_read_errors--;
      state.stats.injected_read_errors++;
      return DeviceErrorStatus("scripted read error");
    }
    if (state.spec.read_error_prob > 0.0 &&
        state.rng.Chance(state.spec.read_error_prob)) {
      state.stats.injected_read_errors++;
      return DeviceErrorStatus("transient read error");
    }
  }
  return OkStatus();
}

SimTime FaultInjector::StretchCompletion(int device, int channel, SimTime done,
                                         SimTime now) const {
  const DeviceState* state = FindState(device);
  if (state == nullptr) {
    return done;
  }
  double mult = state->spec.EffectiveMult(now);
  if (channel >= 0) {
    auto it = state->channel_mult.find(channel);
    if (it != state->channel_mult.end()) {
      mult *= it->second;
    }
  }
  if (mult <= 1.0) {
    return done;
  }
  const SimTime span = done > now ? done - now : 0;
  const SimTime stretched = static_cast<SimTime>(static_cast<double>(span) * mult);
  const SimTime excess = stretched > span ? stretched - span : 0;
  // Serialize the excess through the device's single recovery lane: the
  // nominal span keeps the device's internal parallelism, but the retry/
  // re-read work a gray device burns per I/O does not pipeline, so
  // concurrent I/O convoys behind it.
  const SimTime lane_free =
      done > state->slow_busy_until ? done : state->slow_busy_until;
  state->slow_busy_until = lane_free + excess;
  return state->slow_busy_until;
}

FaultStats FaultInjector::stats() const {
  FaultStats total;
  for (const DeviceState& state : devices_) {
    total.injected_read_errors += state.stats.injected_read_errors;
    total.injected_write_errors += state.stats.injected_write_errors;
    total.unavailable_rejections += state.stats.unavailable_rejections;
  }
  return total;
}

}  // namespace biza
