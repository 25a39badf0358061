// Tests of the fail-slow (gray-failure) detector and the time-varying
// fail-slow shapes it is designed to catch.
#include <gtest/gtest.h>

#include <vector>

#include "src/fault/fault_injector.h"
#include "src/health/device_health.h"

namespace biza {
namespace {

using Kind = DeviceHealthMonitor::Kind;

constexpr SimTime kBase = 100000;   // healthy read, 100 us
constexpr SimTime kSlow = 800000;   // 8x stretch
constexpr SimTime kSpike = 2000000; // GC-style 20x outlier

HealthConfig SmallConfig() {
  HealthConfig config;
  config.enabled = true;
  config.window_ios = 8;        // tiny windows keep tests readable
  config.min_window_ns = 1000;  // samples below are spaced 1 us apart
  return config;
}

// Drives a monitor with a monotonically advancing sample clock.
class Harness {
 public:
  explicit Harness(HealthConfig config = SmallConfig())
      : mon(config, /*num_channels=*/4) {}

  void Feed(int device, Kind kind, int channel, SimTime latency, int n) {
    for (int i = 0; i < n; ++i) {
      now += 1000;
      mon.RecordLatency(device, kind, channel, latency, now);
    }
  }
  // One full read window (window_ios samples, spanning > min_window_ns).
  void ReadWindow(int device, SimTime latency) {
    Feed(device, Kind::kRead, -1, latency, 8);
  }
  // Gives every device except `subject` a warm 100 us read baseline.
  void WarmPeers(int subject) {
    for (int d = 0; d < 4; ++d) {
      if (d != subject) {
        ReadWindow(d, kBase);
      }
    }
  }
  void WarmPeerWrites(int subject) {
    for (int d = 0; d < 4; ++d) {
      if (d != subject) {
        Feed(d, Kind::kWrite, 0, kBase, 8);
      }
    }
  }

  DeviceHealthMonitor mon;
  SimTime now = 0;
};

TEST(DeviceHealthMonitor, UnseenDevicesAreHealthy) {
  Harness h;
  EXPECT_EQ(h.mon.num_devices(), 0);
  EXPECT_EQ(h.mon.state(0), DeviceHealth::kHealthy);
  EXPECT_EQ(h.mon.state(99), DeviceHealth::kHealthy);
  EXPECT_FALSE(h.mon.IsGray(3));
  EXPECT_FALSE(h.mon.IsGrayChannel(0, 0));
}

TEST(DeviceHealthMonitor, HysteresisHealthySuspectGray) {
  Harness h;
  h.WarmPeers(1);

  h.ReadWindow(1, kSlow);  // first hot window
  EXPECT_EQ(h.mon.state(1), DeviceHealth::kSuspect);
  EXPECT_FALSE(h.mon.IsGray(1));

  h.ReadWindow(1, kSlow);  // second hot window: still only suspect
  EXPECT_EQ(h.mon.state(1), DeviceHealth::kSuspect);

  h.ReadWindow(1, kSlow);  // third hot window crosses kGrayWindows
  EXPECT_EQ(h.mon.state(1), DeviceHealth::kGray);
  EXPECT_TRUE(h.mon.IsGray(1));

  EXPECT_EQ(h.mon.stats().suspect_transitions, 1u);
  EXPECT_EQ(h.mon.stats().gray_transitions, 1u);
}

TEST(DeviceHealthMonitor, CalmWindowsRecoverAGrayDevice) {
  Harness h;
  h.WarmPeers(1);
  for (int i = 0; i < 3; ++i) {
    h.ReadWindow(1, kSlow);
  }
  ASSERT_EQ(h.mon.state(1), DeviceHealth::kGray);

  for (int i = 0; i < 3; ++i) {
    h.ReadWindow(1, kBase);
    EXPECT_EQ(h.mon.state(1), DeviceHealth::kGray) << "recovered early: " << i;
  }
  h.ReadWindow(1, kBase);  // fourth calm window crosses kRecoverWindows
  EXPECT_EQ(h.mon.state(1), DeviceHealth::kRecovered);
  EXPECT_EQ(h.mon.stats().recoveries, 1u);

  // A recovered device is scored like a healthy one: heat re-suspects it.
  h.ReadWindow(1, kSlow);
  EXPECT_EQ(h.mon.state(1), DeviceHealth::kSuspect);
}

TEST(DeviceHealthMonitor, OneCalmWindowClearsSuspicion) {
  Harness h;
  h.WarmPeers(1);
  h.ReadWindow(1, kSlow);
  ASSERT_EQ(h.mon.state(1), DeviceHealth::kSuspect);
  h.ReadWindow(1, kBase);
  EXPECT_EQ(h.mon.state(1), DeviceHealth::kHealthy);
  EXPECT_EQ(h.mon.stats().gray_transitions, 0u);
  // The hot streak must restart from scratch: two more hot windows are not
  // enough to go gray again.
  h.ReadWindow(1, kSlow);
  h.ReadWindow(1, kSlow);
  EXPECT_EQ(h.mon.state(1), DeviceHealth::kSuspect);
}

TEST(DeviceHealthMonitor, OccasionalGcSpikesNeverGray) {
  Harness h;
  h.WarmPeers(1);
  // One 20x GC outlier per window: nearest-rank p99 of an 8-sample window
  // ignores the single largest sample, so the windows score calm.
  for (int w = 0; w < 20; ++w) {
    h.Feed(1, Kind::kRead, -1, kSpike, 1);
    h.Feed(1, Kind::kRead, -1, kBase, 7);
    EXPECT_EQ(h.mon.state(1), DeviceHealth::kHealthy) << "window " << w;
  }
  EXPECT_EQ(h.mon.stats().gray_transitions, 0u);
  EXPECT_EQ(h.mon.stats().suspect_transitions, 0u);
}

TEST(DeviceHealthMonitor, ZeroSpanBurstDoesNotCloseAWindow) {
  Harness h;
  h.WarmPeers(1);
  const uint64_t windows_before = h.mon.stats().windows;
  // A GC pulse: window_ios spike samples at one instant. Deep enough, but
  // not long enough — the window must stay open.
  for (int i = 0; i < 8; ++i) {
    h.mon.RecordLatency(1, Kind::kRead, -1, kSpike, h.now);
  }
  EXPECT_EQ(h.mon.stats().windows, windows_before);
  EXPECT_EQ(h.mon.state(1), DeviceHealth::kHealthy);
  // Follow-on healthy traffic dilutes the burst; the device may flicker
  // suspect for one window but must never reach gray.
  for (int i = 0; i < 40; ++i) {
    h.Feed(1, Kind::kRead, -1, kBase, 8);
  }
  EXPECT_FALSE(h.mon.IsGray(1));
  EXPECT_EQ(h.mon.stats().gray_transitions, 0u);
  EXPECT_EQ(h.mon.state(1), DeviceHealth::kHealthy);
}

TEST(DeviceHealthMonitor, ArrayWideSlowdownRaisesTheBaselineToo) {
  Harness h;
  h.WarmPeers(1);
  // A GC storm hits every member: all EWMAs rise together, so no single
  // device stands out against the peer median.
  for (int w = 0; w < 10; ++w) {
    for (int d = 0; d < 4; ++d) {
      h.ReadWindow(d, 4 * kBase);
    }
  }
  for (int d = 0; d < 4; ++d) {
    EXPECT_FALSE(h.mon.IsGray(d)) << "device " << d;
  }
  EXPECT_EQ(h.mon.stats().gray_transitions, 0u);
}

TEST(DeviceHealthMonitor, HedgeDelayDerivesFromPeerQuantile) {
  Harness h;
  // No peer windows yet: the floor applies.
  EXPECT_EQ(h.mon.HedgeDelayNs(1), DeviceHealthMonitor::kHedgeFloorNs);
  h.WarmPeers(1);
  // Peers' pooled last windows are all 100 us; q95 = 100 us, x2 safety.
  EXPECT_EQ(h.mon.HedgeDelayNs(1), 2 * kBase);
  // The subject's own (slow) windows must not poison its hedge timer.
  h.ReadWindow(1, kSlow);
  EXPECT_EQ(h.mon.HedgeDelayNs(1), 2 * kBase);
}

TEST(DeviceHealthMonitor, SlowChannelGraysWithoutDemotingTheDevice) {
  Harness h;
  h.WarmPeers(1);
  h.WarmPeerWrites(1);
  // Device 1: one slow write on channel 2 per seven healthy writes on
  // channel 0. The device-level windows score calm (p99 is a healthy
  // sample) while channel 2's dedicated windows fill with pure spikes.
  for (int i = 0; i < 40; ++i) {
    h.Feed(1, Kind::kWrite, 2, kSpike, 1);
    h.Feed(1, Kind::kWrite, 0, kBase, 7);
  }
  EXPECT_TRUE(h.mon.IsGrayChannel(1, 2));
  EXPECT_FALSE(h.mon.IsGrayChannel(1, 0));
  EXPECT_FALSE(h.mon.IsGray(1));
  EXPECT_EQ(h.mon.state(1), DeviceHealth::kHealthy);
  EXPECT_GE(h.mon.stats().channel_gray_transitions, 1u);

  // Channel recovery: healthy traffic on channel 2 closes calm windows.
  for (int i = 0; i < 6; ++i) {
    h.Feed(1, Kind::kWrite, 2, kBase, 8);
  }
  EXPECT_FALSE(h.mon.IsGrayChannel(1, 2));
  EXPECT_GE(h.mon.stats().channel_recoveries, 1u);
}

TEST(DeviceHealthMonitor, ProbeScheduleIsPeriodic) {
  HealthConfig config = SmallConfig();
  config.probe_interval = 4;
  Harness h(config);
  for (int round = 0; round < 3; ++round) {
    EXPECT_FALSE(h.mon.ProbeDue(1));
    EXPECT_FALSE(h.mon.ProbeDue(1));
    EXPECT_FALSE(h.mon.ProbeDue(1));
    EXPECT_TRUE(h.mon.ProbeDue(1));
  }
  // Per-device counters: probing device 2 never advances device 1's clock.
  EXPECT_FALSE(h.mon.ProbeDue(2));
}

TEST(DeviceHealthMonitor, TransitionHookSeesEveryEdge) {
  Harness h;
  struct Edge {
    int device;
    DeviceHealth from;
    DeviceHealth to;
  };
  std::vector<Edge> edges;
  h.mon.SetTransitionHook([&](int d, DeviceHealth from, DeviceHealth to) {
    edges.push_back({d, from, to});
  });
  h.WarmPeers(1);
  for (int i = 0; i < 3; ++i) {
    h.ReadWindow(1, kSlow);
  }
  ASSERT_EQ(edges.size(), 2u);
  EXPECT_EQ(edges[0].device, 1);
  EXPECT_EQ(edges[0].from, DeviceHealth::kHealthy);
  EXPECT_EQ(edges[0].to, DeviceHealth::kSuspect);
  EXPECT_EQ(edges[1].from, DeviceHealth::kSuspect);
  EXPECT_EQ(edges[1].to, DeviceHealth::kGray);
}

TEST(DeviceHealthMonitor, ResetDeviceForgetsAndFiresHook) {
  Harness h;
  h.WarmPeers(1);
  for (int i = 0; i < 3; ++i) {
    h.ReadWindow(1, kSlow);
  }
  ASSERT_TRUE(h.mon.IsGray(1));
  int hook_fires = 0;
  h.mon.SetTransitionHook([&](int d, DeviceHealth from, DeviceHealth to) {
    hook_fires++;
    EXPECT_EQ(d, 1);
    EXPECT_EQ(from, DeviceHealth::kGray);
    EXPECT_EQ(to, DeviceHealth::kHealthy);
  });
  h.mon.ResetDevice(1);  // replacement took over the slot
  EXPECT_EQ(hook_fires, 1);
  EXPECT_EQ(h.mon.state(1), DeviceHealth::kHealthy);
  h.mon.SetTransitionHook(nullptr);  // the re-suspect below is not under test
  // The replacement starts from a clean slate: one hot window is suspect,
  // not gray (no leftover streak).
  h.ReadWindow(1, kSlow);
  EXPECT_EQ(h.mon.state(1), DeviceHealth::kSuspect);
}

// ---- time-varying fail-slow shapes (FaultInjector side) ----

TEST(FaultInjector, EffectiveMultRampsLinearly) {
  DeviceFaultSpec spec;
  spec.latency_mult = 9.0;
  spec.ramp_start = 1000;
  spec.ramp_duration = 1000;
  EXPECT_DOUBLE_EQ(spec.EffectiveMult(0), 1.0);
  EXPECT_DOUBLE_EQ(spec.EffectiveMult(1000), 1.0);
  EXPECT_DOUBLE_EQ(spec.EffectiveMult(1500), 5.0);  // halfway up
  EXPECT_DOUBLE_EQ(spec.EffectiveMult(2000), 9.0);
  EXPECT_DOUBLE_EQ(spec.EffectiveMult(50000), 9.0);  // holds
}

TEST(FaultInjector, EffectiveMultDutyCycles) {
  DeviceFaultSpec spec;
  spec.latency_mult = 8.0;
  spec.duty_period = 1000;
  spec.duty_on = 250;
  EXPECT_DOUBLE_EQ(spec.EffectiveMult(0), 8.0);
  EXPECT_DOUBLE_EQ(spec.EffectiveMult(249), 8.0);
  EXPECT_DOUBLE_EQ(spec.EffectiveMult(250), 1.0);  // off phase
  EXPECT_DOUBLE_EQ(spec.EffectiveMult(999), 1.0);
  EXPECT_DOUBLE_EQ(spec.EffectiveMult(1100), 8.0);  // next period
}

TEST(FaultInjector, StretchSerializesTheExcessSpan) {
  FaultInjector fault;
  fault.SetFailSlow(0, 8.0);
  // A single outstanding I/O sees exactly span * mult.
  EXPECT_EQ(fault.StretchCompletion(0, -1, 100000, 0),
            static_cast<SimTime>(800000));
  // A concurrent I/O convoys behind the first one's recovery work: its
  // excess (700 us) queues after the lane frees at 800 us.
  EXPECT_EQ(fault.StretchCompletion(0, -1, 100000, 0),
            static_cast<SimTime>(1500000));
  // Other devices have their own lane.
  fault.SetFailSlow(1, 8.0);
  EXPECT_EQ(fault.StretchCompletion(1, -1, 100000, 0),
            static_cast<SimTime>(800000));
  // Healthy devices are untouched.
  EXPECT_EQ(fault.StretchCompletion(2, -1, 100000, 0),
            static_cast<SimTime>(100000));
}

TEST(FaultInjector, StretchLaneDrainsWhenIdle) {
  FaultInjector fault;
  fault.SetFailSlow(0, 4.0);
  EXPECT_EQ(fault.StretchCompletion(0, -1, 100000, 0),
            static_cast<SimTime>(400000));
  // An I/O arriving after the lane went idle pays only its own stretch.
  EXPECT_EQ(fault.StretchCompletion(0, -1, 1100000, 1000000),
            static_cast<SimTime>(1400000));
}

}  // namespace
}  // namespace biza
