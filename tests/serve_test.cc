// Serving-frontend tests (src/serve/): the arrival determinism contract
// (identical sequences per (seed), device-frontend invariant, bursts and
// ramps included), the coordinated-omission rule in the open-loop Driver, the
// admission policies (FIFO order, DRR byte-proportional shares, in-flight
// caps, gray shedding), tenant parsing/regions, and the end-to-end
// DRR-beats-FIFO isolation property the tenant_isolation bench plots.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "src/metrics/observability.h"
#include "src/serve/admission.h"
#include "src/serve/serve_frontend.h"
#include "src/serve/tenant.h"
#include "src/sim/simulator.h"
#include "src/testbed/platforms.h"
#include "src/workload/arrival.h"
#include "src/workload/driver.h"
#include "src/workload/workload.h"

namespace biza {
namespace {

// ---------------------------------------------------------------------------
// ArrivalProcess: pure function of (spec, seed).

ArrivalSpec BurstyRampSpec(uint64_t seed) {
  ArrivalSpec spec;
  spec.base_iops = 5000.0;
  spec.burst_mult = 8.0;
  spec.burst_period_s = 0.1;
  spec.burst_on_s = 0.025;
  spec.ramp_amplitude = 0.5;
  spec.ramp_period_s = 0.4;
  spec.seed = seed;
  return spec;
}

std::vector<SimTime> SampleArrivals(const ArrivalSpec& spec, int n) {
  ArrivalProcess process(spec);
  std::vector<SimTime> times;
  SimTime t = 0;
  for (int i = 0; i < n; ++i) {
    t = process.NextAfter(t);
    times.push_back(t);
  }
  return times;
}

TEST(Arrival, SequenceIsPureInSpecAndSeed) {
  const auto a = SampleArrivals(BurstyRampSpec(7), 2000);
  const auto b = SampleArrivals(BurstyRampSpec(7), 2000);
  EXPECT_EQ(a, b);

  const auto c = SampleArrivals(BurstyRampSpec(8), 2000);
  EXPECT_NE(a, c);
}

TEST(Arrival, RateReflectsBurstAndRamp) {
  ArrivalProcess process(BurstyRampSpec(1));
  // t = 0 is inside the burst window and at ramp phase 0 (sin = 0).
  EXPECT_DOUBLE_EQ(process.RateAt(0), 5000.0 * 8.0);
  // t = 50 ms: outside the burst, ramp phase sin(2*pi*0.125) > 0.
  const double off_burst = process.RateAt(50 * kMillisecond);
  EXPECT_GT(off_burst, 5000.0);
  EXPECT_LT(off_burst, 5000.0 * 1.5);
  // t = 300 ms: outside the burst, ramp trough sin(2*pi*0.75) = -1.
  EXPECT_NEAR(process.RateAt(300 * kMillisecond), 2500.0, 1.0);
  // The thinning envelope covers the largest modulated rate.
  EXPECT_GE(process.PeakRate(), 5000.0 * 8.0 * 1.5 - 1.0);
}

TEST(Arrival, ThinningTracksModulatedRate) {
  ArrivalSpec spec = BurstyRampSpec(3);
  spec.ramp_amplitude = 0.0;  // isolate the burst duty cycle
  ArrivalProcess process(spec);
  uint64_t in_burst = 0, total = 0;
  SimTime t = 0;
  while (t < kSecond) {
    t = process.NextAfter(t);
    if (t >= kSecond) break;
    ++total;
    if (t % (100 * kMillisecond) < 25 * kMillisecond) ++in_burst;
  }
  // Expected arrivals: 5000 * (0.75 + 0.25 * 8) = 13750 per second, with
  // 10000 of them (73%) inside the 25% duty-cycle burst windows.
  EXPECT_NEAR(static_cast<double>(total), 13750.0, 500.0);
  EXPECT_NEAR(static_cast<double>(in_burst) / total, 10000.0 / 13750.0, 0.03);
}

// ---------------------------------------------------------------------------
// Tenant parsing and region assignment.

TEST(Tenant, ParseTenantListAcceptsPrefixesWeightsAndRates) {
  std::vector<TenantSpec> tenants;
  ASSERT_TRUE(ParseTenantList("lat:4:2000,batch:1:800,throughput", &tenants));
  ASSERT_EQ(tenants.size(), 3u);
  EXPECT_EQ(tenants[0].cls, TenantClass::kLatency);
  EXPECT_EQ(tenants[0].slo.weight, 4u);
  EXPECT_DOUBLE_EQ(tenants[0].arrival.base_iops, 2000.0);
  EXPECT_EQ(tenants[1].cls, TenantClass::kBatch);
  EXPECT_EQ(tenants[1].slo.weight, 1u);
  EXPECT_EQ(tenants[2].cls, TenantClass::kThroughput);
  // Distinct auto-generated names (metric prefixes must not collide).
  EXPECT_NE(tenants[0].name, tenants[1].name);
}

TEST(Tenant, ParseTenantListRejectsMalformedInput) {
  std::vector<TenantSpec> tenants;
  EXPECT_FALSE(ParseTenantList("", &tenants));
  EXPECT_FALSE(ParseTenantList("gpu:1:100", &tenants));
  EXPECT_FALSE(ParseTenantList("latency:x", &tenants));
  EXPECT_FALSE(ParseTenantList("latency,,batch", &tenants));
}

TEST(Tenant, RegionsAreDisjointAlignedAndIndependentlySeeded) {
  std::vector<TenantSpec> specs;
  specs.push_back(TenantSpec::ForClass(TenantClass::kLatency, "a", 1000));
  specs.push_back(TenantSpec::ForClass(TenantClass::kBatch, "b", 1000));
  TenantSet two(specs, /*seed=*/42);
  const auto regions = two.AssignRegions(100000);
  ASSERT_EQ(regions.size(), 2u);
  EXPECT_EQ(regions[0].start, 0u);
  EXPECT_GE(regions[1].start, regions[0].start + regions[0].blocks);
  for (size_t i = 0; i < regions.size(); ++i) {
    EXPECT_GT(regions[i].blocks, 0u);
    EXPECT_EQ(regions[i].blocks % two.spec(i).request_blocks, 0u);
  }

  // Adding a third tenant must not perturb existing tenants' seed streams.
  specs.push_back(TenantSpec::ForClass(TenantClass::kThroughput, "c", 1000));
  TenantSet three(specs, /*seed=*/42);
  EXPECT_EQ(two.ArrivalSeed(0), three.ArrivalSeed(0));
  EXPECT_EQ(two.WorkloadSeed(1), three.WorkloadSeed(1));
  EXPECT_NE(three.ArrivalSeed(0), three.ArrivalSeed(2));
}

// ---------------------------------------------------------------------------
// AdmissionQueue policies.

ServeRequest MakeRequest(int tenant, SimTime arrival, uint64_t nblocks = 8) {
  ServeRequest request;
  request.tenant = tenant;
  request.arrival = arrival;
  request.req.offset_blocks = 0;
  request.req.nblocks = nblocks;
  request.req.is_write = false;
  return request;
}

TEST(Admission, FifoPopsInArrivalOrderIgnoringCaps) {
  // Tenant 1 has a cap of 1 — FIFO (the strawman) ignores it by design.
  AdmissionQueue queue(AdmissionPolicy::kFifo,
                       {{/*weight=*/4, /*cap=*/0, 1.0},
                        {/*weight=*/1, /*cap=*/1, 1.0}},
                       /*global=*/64);
  queue.Push(MakeRequest(1, 10));
  queue.Push(MakeRequest(0, 20));
  queue.Push(MakeRequest(1, 30));
  queue.Push(MakeRequest(1, 40));
  ServeRequest out;
  SimTime expected[] = {10, 20, 30, 40};
  for (SimTime arrival : expected) {
    ASSERT_TRUE(queue.PopNext(&out));
    EXPECT_EQ(out.arrival, arrival);
  }
  EXPECT_FALSE(queue.PopNext(&out));
  EXPECT_EQ(queue.cap_deferrals(1), 0u);
}

TEST(Admission, GlobalCapBoundsInflightUntilCompletion) {
  AdmissionQueue queue(AdmissionPolicy::kFifo, {{1, 0, 1.0}}, /*global=*/2);
  for (int i = 0; i < 4; ++i) queue.Push(MakeRequest(0, i));
  ServeRequest out;
  EXPECT_TRUE(queue.PopNext(&out));
  EXPECT_TRUE(queue.PopNext(&out));
  EXPECT_FALSE(queue.PopNext(&out));  // window full
  EXPECT_EQ(queue.total_inflight(), 2u);
  queue.OnComplete(0);
  EXPECT_TRUE(queue.PopNext(&out));
  EXPECT_EQ(queue.total_inflight(), 2u);
}

TEST(Admission, DrrSharesAreByteProportional) {
  // Both tenants backlogged with equal-cost requests: pops must follow the
  // 4:1 weight ratio exactly (DRR deficits are deterministic).
  AdmissionQueue queue(AdmissionPolicy::kDrr,
                       {{/*weight=*/4, 0, 1.0}, {/*weight=*/1, 0, 1.0}},
                       /*global=*/1000);
  for (int i = 0; i < 60; ++i) {
    queue.Push(MakeRequest(0, i, 8));
    queue.Push(MakeRequest(1, i, 8));
  }
  int pops[2] = {0, 0};
  ServeRequest out;
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(queue.PopNext(&out));
    ++pops[out.tenant];
  }
  EXPECT_EQ(pops[0], 40);
  EXPECT_EQ(pops[1], 10);
}

TEST(Admission, DrrCostIsBytesNotRequests) {
  // Equal weights but tenant 1's requests are 4x larger: it should get ~4x
  // fewer pops over the same credit.
  AdmissionQueue queue(AdmissionPolicy::kDrr, {{1, 0, 1.0}, {1, 0, 1.0}},
                       /*global=*/1000);
  for (int i = 0; i < 60; ++i) {
    queue.Push(MakeRequest(0, i, 8));
    queue.Push(MakeRequest(1, i, 32));
  }
  int pops[2] = {0, 0};
  ServeRequest out;
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(queue.PopNext(&out));
    ++pops[out.tenant];
  }
  EXPECT_NEAR(static_cast<double>(pops[0]) / pops[1], 4.0, 0.5);
}

TEST(Admission, DrrHonorsInflightCapAndCountsDeferrals) {
  AdmissionQueue queue(AdmissionPolicy::kDrr, {{1, /*cap=*/2, 1.0}},
                       /*global=*/64);
  for (int i = 0; i < 6; ++i) queue.Push(MakeRequest(0, i));
  ServeRequest out;
  EXPECT_TRUE(queue.PopNext(&out));
  EXPECT_TRUE(queue.PopNext(&out));
  EXPECT_FALSE(queue.PopNext(&out));
  EXPECT_GE(queue.cap_deferrals(0), 1u);
  queue.OnComplete(0);
  EXPECT_TRUE(queue.PopNext(&out));
  EXPECT_EQ(queue.inflight(0), 2u);
}

TEST(Admission, GrayPressureShedsCappedAndUncappedTenants) {
  // Tenant 0: cap 8, shed 0.25 -> effective cap 2 under pressure.
  // Tenant 1: uncapped, shed 0.5 -> synthetic cap global * 0.5 = 4.
  AdmissionQueue queue(AdmissionPolicy::kDrr,
                       {{1, 8, 0.25}, {1, 0, 0.5}},
                       /*global=*/8);
  for (int i = 0; i < 10; ++i) queue.Push(MakeRequest(0, i));
  queue.SetPressure(true);
  ServeRequest out;
  int admitted = 0;
  while (queue.PopNext(&out)) ++admitted;
  EXPECT_EQ(admitted, 2);

  AdmissionQueue uncapped(AdmissionPolicy::kDrr, {{1, 0, 0.5}}, /*global=*/8);
  for (int i = 0; i < 10; ++i) uncapped.Push(MakeRequest(0, i));
  uncapped.SetPressure(true);
  admitted = 0;
  while (uncapped.PopNext(&out)) ++admitted;
  EXPECT_EQ(admitted, 4);
  // Pressure lifted: the remaining requests fill to the global cap.
  uncapped.SetPressure(false);
  while (uncapped.PopNext(&out)) ++admitted;
  EXPECT_EQ(admitted, 8);
}

// ---------------------------------------------------------------------------
// Open-loop Driver: no coordinated omission.

TEST(Driver, OpenLoopLatencyIncludesQueueDelay) {
  // Arrivals every 20 us against a target that needs far longer per 256 KiB
  // write at iodepth 1: the backlog grows, and the coordinated-omission rule
  // says the wait must appear in the reported latency.
  Simulator sim;
  PlatformConfig config;
  config.zns = ZnsConfig::Zn540(32, 512);
  auto platform = Platform::Create(&sim, PlatformKind::kBiza, config);
  MicroWorkload wl(true, true, 64, 8192, 3);
  Driver driver(&sim, platform->block(), &wl, /*iodepth=*/1);
  driver.SetArrivalInterval(20 * kMicrosecond);
  const DriverReport report = driver.Run(400, kSecond);

  EXPECT_EQ(report.requests_completed, 400u);
  EXPECT_GT(report.arrivals_deferred, 0u);
  // Queue delay is recorded for every arrival, deferred or not.
  EXPECT_EQ(report.queue_delay.count(), 400u);
  EXPECT_GT(report.queue_delay.Percentile(99.0), 0);
  // Latency from intended arrival >= admission wait for the worst request.
  EXPECT_GE(report.write_latency.Percentile(100.0),
            report.queue_delay.Percentile(100.0));
  // The tail is dominated by queueing: far above the uncontended service
  // time (p50 of the first-issued requests is on the order of the device
  // write, the backlogged max is hundreds of intervals later).
  EXPECT_GT(report.write_latency.Percentile(99.0),
            10 * report.write_latency.Percentile(1.0));
}

TEST(Driver, ClosedLoopHasNoQueueDelayHistogram) {
  Simulator sim;
  PlatformConfig config;
  config.zns = ZnsConfig::Zn540(32, 512);
  auto platform = Platform::Create(&sim, PlatformKind::kBiza, config);
  MicroWorkload wl(true, true, 8, 4096, 3);
  Driver driver(&sim, platform->block(), &wl, 4);
  const DriverReport report = driver.Run(200, kSecond);
  EXPECT_EQ(report.queue_delay.count(), 0u);
  EXPECT_EQ(report.arrivals_deferred, 0u);
}

// ---------------------------------------------------------------------------
// ServeFrontend: determinism, frontend invariance, isolation, QoS.

struct ServeOutcome {
  std::vector<uint64_t> fingerprints;
  std::vector<TenantReport> reports;
};

ServeOutcome RunServe(uint64_t seed, AdmissionPolicy policy, bool qos = false,
                      bool fail_slow = false, bool nvme = false) {
  Simulator sim;
  PlatformConfig config;
  config.zns = ZnsConfig::Zn540(/*num_zones=*/64, /*zone_capacity_blocks=*/1024);
  config.seed = seed;
  if (nvme) {
    config.zns.nvme.enabled = true;
    config.zns.nvme.num_queues = 4;
    config.zns.nvme.queue_depth = 32;
  }
  if (fail_slow) {
    config.faults.Device(1).latency_mult = 8.0;
    config.health.enabled = true;
    config.health.window_ios = 16;
    config.health.min_window_ns = 200 * kMicrosecond;
  }
  auto platform = Platform::Create(&sim, PlatformKind::kBiza, config);
  BlockTarget* target = platform->block();

  ServeConfig serve;
  // Throughput carries the diurnal ramp, batch the burst episodes: the
  // determinism contract must hold with both modulations active.
  serve.tenants.push_back(
      TenantSpec::ForClass(TenantClass::kLatency, "lat", 3000));
  serve.tenants.push_back(
      TenantSpec::ForClass(TenantClass::kThroughput, "thr", 1000));
  serve.tenants.push_back(
      TenantSpec::ForClass(TenantClass::kBatch, "bat", 300));
  serve.policy = policy;
  serve.iodepth = 16;
  serve.qos = qos;
  serve.footprint_blocks = target->capacity_blocks() / 4;
  serve.seed = seed;
  serve.duration_ns = 200 * kMillisecond;

  ServeFrontend frontend(&sim, target, serve);
  Driver::Fill(&sim, target, serve.footprint_blocks, 64);
  if (fail_slow) frontend.AttachHealth(platform->health());

  ServeOutcome outcome;
  outcome.reports = frontend.Run();
  for (size_t i = 0; i < serve.tenants.size(); ++i) {
    outcome.fingerprints.push_back(frontend.ArrivalFingerprint(i));
  }
  return outcome;
}

TEST(ServeFrontend, RunsAreByteIdenticalPerSeed) {
  const ServeOutcome a = RunServe(11, AdmissionPolicy::kDrr);
  const ServeOutcome b = RunServe(11, AdmissionPolicy::kDrr);
  EXPECT_EQ(a.fingerprints, b.fingerprints);
  ASSERT_EQ(a.reports.size(), b.reports.size());
  for (size_t i = 0; i < a.reports.size(); ++i) {
    EXPECT_EQ(a.reports[i].arrivals, b.reports[i].arrivals);
    EXPECT_EQ(a.reports[i].report.requests_completed,
              b.reports[i].report.requests_completed);
    EXPECT_EQ(a.reports[i].report.bytes_read, b.reports[i].report.bytes_read);
    EXPECT_EQ(a.reports[i].report.bytes_written,
              b.reports[i].report.bytes_written);
    EXPECT_EQ(a.reports[i].report.elapsed_ns, b.reports[i].report.elapsed_ns);
    EXPECT_EQ(a.reports[i].report.read_latency.Percentile(99.9),
              b.reports[i].report.read_latency.Percentile(99.9));
  }

  const ServeOutcome c = RunServe(12, AdmissionPolicy::kDrr);
  EXPECT_NE(a.fingerprints, c.fingerprints);
}

TEST(ServeFrontend, ArrivalSequenceIsInvariantUnderNvmeQueueFrontend) {
  // Switching the devices from per-command dispatch to queue-pair submission
  // (batched doorbells, coalesced interrupts) reshapes every completion
  // time — but arrivals are a pure function of (seed, tenant) and must not
  // move. Completion-dependent fields (latency, throughput) may differ.
  const ServeOutcome legacy = RunServe(31, AdmissionPolicy::kDrr);
  const ServeOutcome queued = RunServe(31, AdmissionPolicy::kDrr,
                                       /*qos=*/false, /*fail_slow=*/false,
                                       /*nvme=*/true);
  EXPECT_EQ(legacy.fingerprints, queued.fingerprints);
  ASSERT_EQ(legacy.reports.size(), queued.reports.size());
  for (size_t i = 0; i < legacy.reports.size(); ++i) {
    EXPECT_EQ(legacy.reports[i].arrivals, queued.reports[i].arrivals);
  }

  // The queued serve path is itself deterministic.
  const ServeOutcome queued_again = RunServe(31, AdmissionPolicy::kDrr,
                                             false, false, /*nvme=*/true);
  EXPECT_EQ(queued.fingerprints, queued_again.fingerprints);
}

TEST(ServeFrontend, DrrIsolatesLatencyTenantBetterThanFifo) {
  // Miniature of bench/tenant_isolation.cc: a latency victim against a
  // scan aggressor spiking far past array bandwidth. FIFO parks the victim
  // behind the convoy; DRR must keep its p99.9 strictly lower.
  auto run = [](AdmissionPolicy policy) {
    Simulator sim;
    PlatformConfig config;
    config.zns = ZnsConfig::Zn540(64, 1024);
    config.seed = 5;
    auto platform = Platform::Create(&sim, PlatformKind::kBiza, config);
    BlockTarget* target = platform->block();

    ServeConfig serve;
    serve.tenants.push_back(
        TenantSpec::ForClass(TenantClass::kLatency, "victim", 2000));
    serve.tenants.push_back(
        TenantSpec::ForClass(TenantClass::kBatch, "aggressor", 400));
    serve.tenants.back().slo.inflight_cap = 1;
    serve.tenants.back().read_fraction = 1.0;
    serve.tenants.back().request_blocks = 32;
    serve.tenants.back().arrival.burst_mult = 160.0;
    serve.tenants.back().arrival.burst_period_s = 0.5;
    serve.tenants.back().arrival.burst_on_s = 0.025;
    serve.policy = policy;
    serve.iodepth = 8;
    serve.footprint_blocks = target->capacity_blocks() / 8;
    serve.seed = 5;
    serve.duration_ns = 500 * kMillisecond;

    ServeFrontend frontend(&sim, target, serve);
    Driver::Fill(&sim, target, serve.footprint_blocks, 64);
    const auto reports = frontend.Run();
    return reports[0].report.read_latency.Percentile(99.9);
  };
  const double fifo_p999 = run(AdmissionPolicy::kFifo);
  const double drr_p999 = run(AdmissionPolicy::kDrr);
  EXPECT_GT(fifo_p999, 2.0 * drr_p999);
}

TEST(ServeFrontend, QosHedgesReadsAgainstFailSlowDevice) {
  // One array member is 8x fail-slow (fault injection only — no health
  // plane, so the hedge delay self-seeds from the tenant's own service
  // quantile). With an aggressive policy (hedge past the median) the ~25%
  // of reads that land on the slow device must trigger duplicate reads.
  Simulator sim;
  PlatformConfig config;
  config.zns = ZnsConfig::Zn540(64, 1024);
  config.seed = 31;
  config.faults.Device(1).latency_mult = 8.0;
  auto platform = Platform::Create(&sim, PlatformKind::kBiza, config);
  BlockTarget* target = platform->block();

  ServeConfig serve;
  serve.tenants.push_back(
      TenantSpec::ForClass(TenantClass::kLatency, "lat", 3000));
  serve.tenants[0].slo.hedge_quantile = 0.5;
  serve.tenants[0].slo.hedge_multiplier = 1.0;
  serve.tenants.push_back(
      TenantSpec::ForClass(TenantClass::kBatch, "bat", 300));
  serve.qos = true;
  serve.iodepth = 16;
  serve.footprint_blocks = target->capacity_blocks() / 4;
  serve.seed = 31;
  serve.duration_ns = 200 * kMillisecond;

  ServeFrontend frontend(&sim, target, serve);
  Driver::Fill(&sim, target, serve.footprint_blocks, 64);
  const auto reports = frontend.Run();

  const TenantReport& latency_tenant = reports[0];
  EXPECT_EQ(latency_tenant.cls, TenantClass::kLatency);
  EXPECT_GT(latency_tenant.hedged_reads, 0u);
  EXPECT_LE(latency_tenant.hedge_wins, latency_tenant.hedged_reads);
  // Batch never hedges (hedge_quantile 0).
  EXPECT_EQ(reports[1].hedged_reads, 0u);
  for (const TenantReport& report : reports) {
    EXPECT_GT(report.report.requests_completed, 0u);
  }
}

TEST(ServeFrontend, QosComposesWithHealthPlane) {
  // Health plane attached on top of a fail-slow member: the frontend seeds
  // hedge delays from DeviceHealthMonitor::PooledReadQuantileNs and sheds
  // capped tenants while the device is gray. The engines mitigate the slow
  // device underneath at the same time; the composed stack must still drain
  // every admitted request.
  const ServeOutcome outcome =
      RunServe(31, AdmissionPolicy::kDrr, /*qos=*/true, /*fail_slow=*/true);
  for (const TenantReport& report : outcome.reports) {
    EXPECT_GT(report.report.requests_completed, 0u);
    EXPECT_LE(report.hedge_wins, report.hedged_reads);
  }
}

TEST(ServeFrontend, ObservabilityExportsPerTenantCounters) {
  Simulator sim;
  PlatformConfig config;
  config.zns = ZnsConfig::Zn540(32, 512);
  auto platform = Platform::Create(&sim, PlatformKind::kBiza, config);
  BlockTarget* target = platform->block();

  ServeConfig serve;
  serve.tenants.push_back(
      TenantSpec::ForClass(TenantClass::kLatency, "lat", 2000));
  serve.iodepth = 8;
  serve.footprint_blocks = target->capacity_blocks() / 4;
  serve.duration_ns = 50 * kMillisecond;

  ServeFrontend frontend(&sim, target, serve);
  Driver::Fill(&sim, target, serve.footprint_blocks, 64);
  Observability obs;
  frontend.AttachObservability(&obs);
  const auto reports = frontend.Run();

  uint64_t arrivals = 0, completed = 0;
  bool saw_arrivals = false, saw_completed = false;
  for (const auto& sample : obs.registry.Collect()) {
    if (*sample.name == "serve.lat.arrivals") {
      arrivals = sample.value;
      saw_arrivals = true;
    } else if (*sample.name == "serve.lat.completed") {
      completed = sample.value;
      saw_completed = true;
    }
  }
  ASSERT_TRUE(saw_arrivals);
  ASSERT_TRUE(saw_completed);
  EXPECT_EQ(arrivals, reports[0].arrivals);
  EXPECT_EQ(completed, reports[0].report.requests_completed);
  // The attached read histogram mirrors the report's.
  const auto& histograms = obs.registry.histograms();
  const auto it = histograms.find("serve.lat.read_latency");
  ASSERT_NE(it, histograms.end());
  EXPECT_EQ(it->second.count(), reports[0].report.read_latency.count());
}

}  // namespace
}  // namespace biza
