// Table 3: inter-zone parallelism — writing one zone, two zones on the same
// I/O channel, and two zones on different channels (§3.3).
//
// Also demonstrates the zone-to-zone latency diagnosis (the calibration
// procedure BIZA's guess-and-verify mechanism bootstraps from): pairwise
// concurrent probes classify zone pairs as same- or different-channel, and
// the classification is checked against the device's hidden ground truth.
#include <cstdio>
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "src/biza/zone_scheduler.h"
#include "src/common/histogram.h"
#include "src/zns/zns_device.h"

namespace biza {
namespace {

struct ScenarioResult {
  double mbps = 0;
  double avg_us = 0;
  double p50_us = 0;
  double p9999_us = 0;
};

// Writes 64 KiB requests at depth 8 per zone across `zones`, measuring
// completion latency. Zones must be freshly opened ZRWA zones. 16 000
// requests fill 93 % of a ZN540 zone, so the bench's simulation-rate record
// times hundreds of thousands of events rather than host noise.
ScenarioResult RunScenario(const std::vector<uint32_t>& zones, ZnsDevice* dev,
                           Simulator* sim) {
  constexpr uint64_t kReqBlocks = 16;  // 64 KiB
  constexpr int kDepthPerZone = 8;
  constexpr uint64_t kRequestsPerZone = 16000;

  LatencyHistogram hist;
  uint64_t completed = 0;
  SimTime last_done = 0;

  struct ZoneState {
    std::unique_ptr<ZoneScheduler> sched;
    uint64_t issued = 0;
    int inflight = 0;
  };
  std::vector<ZoneState> states(zones.size());
  for (size_t i = 0; i < zones.size(); ++i) {
    states[i].sched = std::make_unique<ZoneScheduler>(dev, zones[i]);
  }

  std::function<void(size_t)> pump = [&](size_t zi) {
    ZoneState& state = states[zi];
    while (state.inflight < kDepthPerZone && state.issued < kRequestsPerZone &&
           state.sched->free_blocks() >= kReqBlocks) {
      const uint64_t off = state.sched->Allocate(kReqBlocks);
      state.issued++;
      state.inflight++;
      const SimTime submit = sim->Now();
      state.sched->SubmitWrite(off, std::vector<uint64_t>(kReqBlocks, off), {},
                               [&, zi, submit](const Status&) {
                                 states[zi].inflight--;
                                 hist.Record(sim->Now() - submit);
                                 completed++;
                                 last_done = sim->Now();
                                 pump(zi);
                               });
    }
  };
  const SimTime start = sim->Now();
  for (size_t i = 0; i < zones.size(); ++i) {
    pump(i);
  }
  sim->RunUntilIdle();

  ScenarioResult result;
  result.mbps =
      ThroughputMBps(completed * kReqBlocks * kBlockSize, last_done - start);
  result.avg_us = hist.Mean() / 1e3;
  result.p50_us = static_cast<double>(hist.Percentile(50)) / 1e3;
  result.p9999_us = static_cast<double>(hist.Percentile(99.99)) / 1e3;
  return result;
}

// Opens and returns a fresh ZRWA zone; with `want_channel` >= 0 keeps
// opening until the device maps one onto (or off, if `invert`) that channel.
uint32_t OpenFreshZone(ZnsDevice* dev, uint32_t& cursor, int want_channel = -1,
                       bool invert = false) {
  while (cursor < dev->config().num_zones) {
    const uint32_t zone = cursor++;
    if (dev->Report(zone).state != ZoneState::kEmpty) {
      continue;
    }
    if (!dev->OpenZone(zone, /*with_zrwa=*/true).ok()) {
      continue;
    }
    if (want_channel < 0) {
      return zone;
    }
    const bool matches = dev->DebugChannelOf(zone) == want_channel;
    if (matches != invert) {
      return zone;
    }
  }
  return 0;
}

// Zone-to-zone diagnosis: probe a pair of open zones with concurrent writes
// and classify by latency inflation (the §3.3 calibration method).
bool DiagnoseSameChannel(ZnsDevice* dev, Simulator* sim, uint32_t a,
                         uint32_t b, uint32_t solo) {
  const double solo_lat = RunScenario({solo}, dev, sim).avg_us;
  const double pair_lat = RunScenario({a, b}, dev, sim).avg_us;
  return pair_lat > solo_lat * 1.5;
}

void Run() {
  PrintTitle("Table 3", "write performance across zone/channel scenarios");
  PrintPaperNote(
      "same-channel pair: no throughput gain, 1.0x/0.6x/3.1x higher "
      "avg/p50/p99.99 latency; different-channel pair: 2x throughput, "
      "near-solo latency (ZN540: 1092 -> 2170 MB/s)");

  Simulator sim;
  ZnsConfig config = ZnsConfig::Zn540(/*num_zones=*/128,
                                      ZnsConfig::kFullZn540ZoneBlocks);
  config.max_open_zones = 128;
  ZnsDevice dev(&sim, config);
  uint32_t cursor = 0;

  std::printf("%-34s %10s %9s %9s %11s\n", "scenario", "MB/s", "avg us",
              "p50 us", "p99.99 us");

  // Scenario 1: single zone.
  const uint32_t s1 = OpenFreshZone(&dev, cursor);
  const ScenarioResult r1 = RunScenario({s1}, &dev, &sim);
  std::printf("%-34s %10.0f %9.1f %9.1f %11.1f\n", "1. single zone", r1.mbps,
              r1.avg_us, r1.p50_us, r1.p9999_us);

  // Scenario 2: two zones on the SAME channel.
  const uint32_t s2a = OpenFreshZone(&dev, cursor);
  const uint32_t s2b =
      OpenFreshZone(&dev, cursor, dev.DebugChannelOf(s2a), false);
  const ScenarioResult r2 = RunScenario({s2a, s2b}, &dev, &sim);
  std::printf("%-34s %10.0f %9.1f %9.1f %11.1f\n",
              "2. two zones, identical channel", r2.mbps, r2.avg_us, r2.p50_us,
              r2.p9999_us);

  // Scenario 3: two zones on DIFFERENT channels.
  const uint32_t s3a = OpenFreshZone(&dev, cursor);
  const uint32_t s3b =
      OpenFreshZone(&dev, cursor, dev.DebugChannelOf(s3a), true);
  const ScenarioResult r3 = RunScenario({s3a, s3b}, &dev, &sim);
  std::printf("%-34s %10.0f %9.1f %9.1f %11.1f\n",
              "3. two zones, diverse channels", r3.mbps, r3.avg_us, r3.p50_us,
              r3.p9999_us);

  std::printf("\nthroughput: scenario3/scenario1 = %.2fx (paper: 1.99x), "
              "scenario2/scenario1 = %.2fx (paper: 1.0x)\n",
              r3.mbps / r1.mbps, r2.mbps / r1.mbps);

  // Diagnosis demo on fresh zones.
  std::printf("\nzone-to-zone diagnosis (pairwise latency probing, §3.3):\n");
  const uint32_t da = OpenFreshZone(&dev, cursor);
  const uint32_t db_same =
      OpenFreshZone(&dev, cursor, dev.DebugChannelOf(da), false);
  const uint32_t db_diff =
      OpenFreshZone(&dev, cursor, dev.DebugChannelOf(da), true);
  const uint32_t solo = OpenFreshZone(&dev, cursor);
  const uint32_t da2 = OpenFreshZone(&dev, cursor, dev.DebugChannelOf(da), false);
  const bool same_verdict = DiagnoseSameChannel(&dev, &sim, da, db_same, solo);
  const bool diff_verdict = DiagnoseSameChannel(&dev, &sim, da2, db_diff,
                                                OpenFreshZone(&dev, cursor));
  std::printf("  pair on one channel   : diagnosed %s (truth: SAME)\n",
              same_verdict ? "SAME" : "DIFFERENT");
  std::printf("  pair on two channels  : diagnosed %s (truth: DIFFERENT)\n",
              diff_verdict ? "SAME" : "DIFFERENT");
  // Scenarios share one device (channel relationships span them), so this
  // bench stays sequential; it still reports its simulation rate.
  RecordSimEvents(sim);
}

}  // namespace
}  // namespace biza

int main() {
  biza::BenchMetricScope metrics("tab03_inter_zone");
  biza::Run();
  return 0;
}
