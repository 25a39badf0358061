#include "src/health/device_health.h"

#include <algorithm>
#include <cassert>

namespace biza {

const char* DeviceHealthName(DeviceHealth state) {
  switch (state) {
    case DeviceHealth::kHealthy:
      return "healthy";
    case DeviceHealth::kSuspect:
      return "suspect";
    case DeviceHealth::kGray:
      return "gray";
    case DeviceHealth::kRecovered:
      return "recovered";
  }
  return "?";
}

namespace {

// Nearest-rank p99 over a sorted window.
SimTime P99Of(const std::vector<SimTime>& sorted) {
  if (sorted.empty()) {
    return 0;
  }
  const size_t idx = (99 * (sorted.size() - 1)) / 100;
  return sorted[idx];
}

SimTime QuantileOf(const std::vector<SimTime>& sorted, double q) {
  if (sorted.empty()) {
    return 0;
  }
  double pos = q * static_cast<double>(sorted.size() - 1);
  if (pos < 0.0) {
    pos = 0.0;
  }
  size_t idx = static_cast<size_t>(pos);
  if (idx >= sorted.size()) {
    idx = sorted.size() - 1;
  }
  return sorted[idx];
}

}  // namespace

DeviceHealthMonitor::DeviceHealthMonitor(HealthConfig config, int num_channels)
    : config_(config), num_channels_(num_channels) {}

DeviceHealthMonitor::DeviceState& DeviceHealthMonitor::StateFor(int device) {
  while (devices_.size() <= static_cast<size_t>(device)) {
    devices_.push_back(std::make_unique<DeviceState>());
  }
  DeviceState& state = *devices_[static_cast<size_t>(device)];
  if (num_channels_ > 0 && state.channels.empty()) {
    state.channels.resize(static_cast<size_t>(num_channels_));
  }
  return state;
}

bool DeviceHealthMonitor::FeedSignal(Signal* signal, SimTime latency_ns,
                                     SimTime now) {
  const double sample = static_cast<double>(latency_ns);
  if (signal->samples == 0) {
    signal->ewma = sample;
  } else {
    signal->ewma += kEwmaAlpha * (sample - signal->ewma);
  }
  signal->samples++;
  if (!signal->window_open) {
    signal->window_open = true;
    signal->window_start = now;
    signal->window.clear();
  }
  signal->window.push_back(latency_ns);
  // A window closes only once it is both deep enough (window_ios samples)
  // and long enough (min_window_ns of simulated time): a short GC burst can
  // satisfy one condition, rarely both.
  if (signal->window.size() < config_.window_ios ||
      now - signal->window_start < config_.min_window_ns) {
    return false;
  }
  signal->last_window_sorted = signal->window;
  std::sort(signal->last_window_sorted.begin(),
            signal->last_window_sorted.end());
  signal->last_p99 = P99Of(signal->last_window_sorted);
  signal->window_open = false;
  return true;
}

double DeviceHealthMonitor::PeerBaseline(int device, Kind kind) const {
  std::vector<double> peers;
  for (size_t d = 0; d < devices_.size(); ++d) {
    if (static_cast<int>(d) == device || devices_[d] == nullptr) {
      continue;
    }
    const Signal& sig = devices_[d]->signals[static_cast<int>(kind)];
    // Only warm peers vote: a peer that has closed at least one window has
    // an EWMA that reflects steady state, not the first few completions.
    if (sig.samples >= config_.window_ios) {
      peers.push_back(sig.ewma);
    }
  }
  if (peers.empty()) {
    if (static_cast<size_t>(device) < devices_.size() &&
        devices_[static_cast<size_t>(device)] != nullptr) {
      return devices_[static_cast<size_t>(device)]
          ->signals[static_cast<int>(kind)]
          .ewma;
    }
    return 0.0;
  }
  std::sort(peers.begin(), peers.end());
  return peers[peers.size() / 2];
}

void DeviceHealthMonitor::Transition(int device, DeviceState& state,
                                     DeviceHealth to) {
  const DeviceHealth from = state.health;
  if (from == to) {
    return;
  }
  state.health = to;
  switch (to) {
    case DeviceHealth::kSuspect:
      stats_.suspect_transitions++;
      break;
    case DeviceHealth::kGray:
      stats_.gray_transitions++;
      break;
    case DeviceHealth::kRecovered:
      stats_.recoveries++;
      break;
    case DeviceHealth::kHealthy:
      break;
  }
  if (hook_) {
    hook_(device, from, to);
  }
}

void DeviceHealthMonitor::ScoreWindow(int device, DeviceState& state,
                                      Kind kind) {
  const Signal& sig = state.signals[static_cast<int>(kind)];
  const double baseline = PeerBaseline(device, kind);
  if (baseline <= 0.0) {
    return;  // nothing to compare against yet
  }
  const double p99 = static_cast<double>(sig.last_p99);
  const bool hot = p99 >= config_.suspect_factor * baseline;
  const bool calm = p99 <= kRecoverFactor * baseline;
  switch (state.health) {
    case DeviceHealth::kHealthy:
    case DeviceHealth::kRecovered:
      if (hot) {
        state.hot_streak = 1;
        state.calm_streak = 0;
        Transition(device, state, DeviceHealth::kSuspect);
      }
      break;
    case DeviceHealth::kSuspect:
      if (hot) {
        state.hot_streak++;
        // Promotion to gray demands sustained heat *and* a decisively slow
        // last window — a device hovering at 2.6x baseline stays suspect
        // (hedged) without ever being written around.
        if (state.hot_streak >= kGrayWindows &&
            p99 >= config_.gray_factor * baseline) {
          Transition(device, state, DeviceHealth::kGray);
          state.calm_streak = 0;
        }
      } else {
        state.hot_streak = 0;
        // Any non-hot window clears suspicion silently (no hook fire for
        // suspect->healthy noise).
        Transition(device, state, DeviceHealth::kHealthy);
      }
      break;
    case DeviceHealth::kGray:
      if (calm) {
        state.calm_streak++;
        if (state.calm_streak >= kRecoverWindows) {
          state.hot_streak = 0;
          Transition(device, state, DeviceHealth::kRecovered);
        }
      } else {
        state.calm_streak = 0;
      }
      break;
  }
}

void DeviceHealthMonitor::ScoreChannelWindow(int /*device*/, ChannelState& ch,
                                             double baseline) {
  if (baseline <= 0.0) {
    return;
  }
  const double p99 = static_cast<double>(ch.signal.last_p99);
  const bool hot = p99 >= config_.gray_factor * baseline;
  const bool calm = p99 <= kRecoverFactor * baseline;
  if (!ch.gray) {
    if (hot) {
      ch.hot_streak++;
      if (ch.hot_streak >= kGrayWindows) {
        ch.gray = true;
        ch.calm_streak = 0;
        stats_.channel_gray_transitions++;
      }
    } else {
      ch.hot_streak = 0;
    }
  } else {
    if (calm) {
      ch.calm_streak++;
      if (ch.calm_streak >= kRecoverWindows) {
        ch.gray = false;
        ch.hot_streak = 0;
        stats_.channel_recoveries++;
      }
    } else {
      ch.calm_streak = 0;
    }
  }
}

void DeviceHealthMonitor::RecordLatency(int device, Kind kind, int channel,
                                        SimTime latency_ns, SimTime now) {
  if (device < 0) {
    return;
  }
  DeviceState& state = StateFor(device);
  stats_.samples++;
  if (FeedSignal(&state.signals[static_cast<int>(kind)], latency_ns, now)) {
    stats_.windows++;
    ScoreWindow(device, state, kind);
  }
  if (kind == Kind::kWrite && channel >= 0 &&
      static_cast<size_t>(channel) < state.channels.size()) {
    ChannelState& ch = state.channels[static_cast<size_t>(channel)];
    if (FeedSignal(&ch.signal, latency_ns, now)) {
      // Channel windows score against the device's own write EWMA: a gray
      // channel is one that is slow relative to its siblings on the same
      // device, independent of how the device compares to its peers.
      ScoreChannelWindow(device, ch,
                        state.signals[static_cast<int>(Kind::kWrite)].ewma);
    }
  }
}

DeviceHealth DeviceHealthMonitor::state(int device) const {
  if (device < 0 || static_cast<size_t>(device) >= devices_.size() ||
      devices_[static_cast<size_t>(device)] == nullptr) {
    return DeviceHealth::kHealthy;
  }
  return devices_[static_cast<size_t>(device)]->health;
}

bool DeviceHealthMonitor::IsGrayChannel(int device, int channel) const {
  if (device < 0 || static_cast<size_t>(device) >= devices_.size() ||
      devices_[static_cast<size_t>(device)] == nullptr || channel < 0) {
    return false;
  }
  const DeviceState& state = *devices_[static_cast<size_t>(device)];
  if (static_cast<size_t>(channel) >= state.channels.size()) {
    return false;
  }
  return state.channels[static_cast<size_t>(channel)].gray;
}

SimTime DeviceHealthMonitor::HedgeDelayNs(int device) const {
  // Pool the peers' last closed read windows and take the configured
  // quantile — "how long would this read take on a healthy member?" — then
  // scale by the safety multiplier. Deterministic: depends only on the
  // sample history, never on wall time.
  std::vector<SimTime> pool;
  for (size_t d = 0; d < devices_.size(); ++d) {
    if (static_cast<int>(d) == device || devices_[d] == nullptr) {
      continue;
    }
    const Signal& sig = devices_[d]->signals[static_cast<int>(Kind::kRead)];
    pool.insert(pool.end(), sig.last_window_sorted.begin(),
                sig.last_window_sorted.end());
  }
  if (pool.empty()) {
    return kHedgeFloorNs;
  }
  std::sort(pool.begin(), pool.end());
  const SimTime q = QuantileOf(pool, config_.hedge_quantile);
  const SimTime hedge = static_cast<SimTime>(
      static_cast<double>(q) * kHedgeMultiplier);
  return std::max(hedge, kHedgeFloorNs);
}

SimTime DeviceHealthMonitor::PooledReadQuantileNs(double quantile) const {
  // All devices' last closed read windows pooled: "how long do array reads
  // take lately?" — the serving frontend's seed for SLO hedge delays. Unlike
  // HedgeDelayNs this includes every member (a frontend read may land
  // anywhere) and applies no multiplier or floor; policy stays with the
  // caller. 0 until at least one window has closed.
  std::vector<SimTime> pool;
  for (const auto& state : devices_) {
    if (state == nullptr) {
      continue;
    }
    const Signal& sig = state->signals[static_cast<int>(Kind::kRead)];
    pool.insert(pool.end(), sig.last_window_sorted.begin(),
                sig.last_window_sorted.end());
  }
  if (pool.empty()) {
    return 0;
  }
  std::sort(pool.begin(), pool.end());
  return QuantileOf(pool, quantile);
}

bool DeviceHealthMonitor::ProbeDue(int device) {
  if (config_.probe_interval == 0) {
    return false;
  }
  DeviceState& state = StateFor(device);
  state.probe_counter++;
  if (state.probe_counter >= config_.probe_interval) {
    state.probe_counter = 0;
    return true;
  }
  return false;
}

void DeviceHealthMonitor::ResetDevice(int device) {
  if (device < 0 || static_cast<size_t>(device) >= devices_.size() ||
      devices_[static_cast<size_t>(device)] == nullptr) {
    return;
  }
  DeviceState& state = *devices_[static_cast<size_t>(device)];
  const DeviceHealth from = state.health;
  state = DeviceState{};
  if (num_channels_ > 0) {
    state.channels.resize(static_cast<size_t>(num_channels_));
  }
  if (from != DeviceHealth::kHealthy && hook_) {
    hook_(device, from, DeviceHealth::kHealthy);
  }
}

}  // namespace biza
