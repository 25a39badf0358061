// Tests for the metrics helpers (CPU accounts, WA breakdowns), the device
// adapters, the observability plane (registry, tracer, sampler), and the
// benches' machine-readable record line.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>
#include <string>

#include "bench/bench_util.h"
#include "src/common/histogram.h"
#include "src/metrics/cpu_account.h"
#include "src/metrics/observability.h"
#include "src/metrics/wa_report.h"
#include "src/sim/parallel_runner.h"
#include "src/sim/simulator.h"
#include "src/testbed/platforms.h"
#include "src/workload/driver.h"
#include "src/workload/workload.h"

namespace biza {
namespace {

TEST(CpuAccount, UsagePercent) {
  CpuAccount account;
  account.Charge(500000);  // 0.5 ms of CPU over a 1 ms interval = 50%
  EXPECT_DOUBLE_EQ(account.UsagePercent(1000000), 50.0);
  EXPECT_DOUBLE_EQ(account.UsagePercent(0), 0.0);
}

TEST(CpuAccount, ResetClears) {
  CpuAccount account;
  account.Charge(100);
  account.Reset();
  EXPECT_EQ(account.total(), 0u);
}

TEST(WaBreakdown, RatiosNormalizeByUserBlocks) {
  WaBreakdown wa;
  wa.user_blocks = 1000;
  wa.flash_data = 800;
  wa.flash_parity = 300;
  EXPECT_DOUBLE_EQ(wa.DataRatio(), 0.8);
  EXPECT_DOUBLE_EQ(wa.ParityRatio(), 0.3);
  EXPECT_DOUBLE_EQ(wa.TotalRatio(), 1.1);
  EXPECT_EQ(wa.flash_total(), 1100u);
}

TEST(WaBreakdown, AddDeviceTagsClassifies) {
  WaBreakdown wa;
  wa.user_blocks = 10;
  uint64_t tags[kNumWriteTags] = {};
  tags[static_cast<int>(WriteTag::kData)] = 5;
  tags[static_cast<int>(WriteTag::kGcData)] = 2;
  tags[static_cast<int>(WriteTag::kParity)] = 3;
  tags[static_cast<int>(WriteTag::kGcParity)] = 1;
  tags[static_cast<int>(WriteTag::kMeta)] = 4;
  wa.AddDeviceTags(tags);
  EXPECT_EQ(wa.flash_data, 7u);    // data + GC-migrated data
  EXPECT_EQ(wa.flash_parity, 4u);  // parity + GC-migrated parity
  EXPECT_EQ(wa.flash_meta, 4u);
}

TEST(WaBreakdown, ZeroUserBlocksIsSafe) {
  WaBreakdown wa;
  EXPECT_DOUBLE_EQ(wa.TotalRatio(), 0.0);
}

// The devices are their own targets: each test drives one only through its
// target interface.
TEST(ZnsZonedTargetAdapter, ForwardsGeometryAndWrites) {
  Simulator sim;
  ZnsConfig config = ZnsConfig::Zn540(/*num_zones=*/8, /*zone_cap=*/128);
  config.dispatch_jitter_ns = 0;
  ZnsDevice dev(&sim, config);
  ZonedTarget& target = dev;
  EXPECT_EQ(target.num_zones(), 8u);
  EXPECT_EQ(target.zone_capacity_blocks(), 128u);
  EXPECT_EQ(target.max_open_zones(), 14);

  Status status = InternalError("x");
  target.SubmitZoneWrite(0, 0, {1, 2}, [&](const Status& s) { status = s; },
                         WriteTag::kParity);
  sim.RunUntilIdle();
  ASSERT_TRUE(status.ok());
  // The tag travelled into the device's per-tag accounting.
  EXPECT_EQ(dev.stats().flash_by_tag[static_cast<int>(WriteTag::kParity)], 2u);

  std::vector<uint64_t> out;
  target.SubmitZoneRead(0, 0, 2, [&](const Status& s, std::vector<uint64_t> p) {
    status = s;
    out = std::move(p);
  });
  sim.RunUntilIdle();
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(out, (std::vector<uint64_t>{1, 2}));

  EXPECT_TRUE(target.ResetZone(0).ok());
  EXPECT_EQ(dev.Report(0).state, ZoneState::kEmpty);
}

TEST(ConvSsdTargetAdapter, ForwardsCapacityAndIo) {
  Simulator sim;
  ConvSsdConfig config;
  config.capacity_blocks = 4096;
  config.pages_per_flash_block = 128;
  config.dispatch_jitter_ns = 0;
  ConvSsd dev(&sim, config);
  BlockTarget& target = dev;
  EXPECT_EQ(target.capacity_blocks(), 4096u);

  Status status = InternalError("x");
  target.SubmitWrite(77, {9}, [&](const Status& s) { status = s; },
                     WriteTag::kData);
  sim.RunUntilIdle();
  ASSERT_TRUE(status.ok());
  std::vector<uint64_t> out;
  target.SubmitRead(77, 1, [&](const Status& s, std::vector<uint64_t> p) {
    status = s;
    out = std::move(p);
  });
  sim.RunUntilIdle();
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(out.at(0), 9u);
}

// ---------------------------------------------------------------------------
// Observability plane (src/metrics, DESIGN.md §5).

TEST(LatencyHistogramBuckets, PercentilesBoundedByRecordedRange) {
  LatencyHistogram h;
  for (uint64_t v = 1000; v <= 100000; v += 1000) {
    h.Record(v);
  }
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.min(), 1000u);
  EXPECT_EQ(h.max(), 100000u);
  // Log-bucketing with 6 significant bits bounds the representative value
  // of any bucket to within ~1/64 of the true sample.
  const double tolerance = 1.0 / 64.0;
  for (double p : {1.0, 25.0, 50.0, 90.0, 99.0, 100.0}) {
    const uint64_t v = h.Percentile(p);
    EXPECT_GE(static_cast<double>(v), 1000.0 * (1 - tolerance)) << p;
    EXPECT_LE(static_cast<double>(v), 100000.0 * (1 + tolerance)) << p;
  }
  // Percentiles are monotone in p.
  EXPECT_LE(h.Percentile(50), h.Percentile(99));
  EXPECT_LE(h.Percentile(99), h.Percentile(99.9));
  // The median of a uniform 1..100k sweep sits near 50k.
  const double median = static_cast<double>(h.Percentile(50));
  EXPECT_NEAR(median, 50000.0, 50000.0 * 2 * tolerance);
}

TEST(StatRegistryTest, CollectPreservesRegistrationOrderAndKinds) {
  StatRegistry reg;
  uint64_t a = 5, b = 7;
  reg.RegisterCounter("z.first", [&a] { return a; });
  reg.RegisterGauge("a.second", [&b] { return b; });
  auto samples = reg.Collect();
  ASSERT_EQ(samples.size(), 2u);
  EXPECT_EQ(*samples[0].name, "z.first");  // registration order, not sorted
  EXPECT_EQ(samples[0].kind, StatKind::kCounter);
  EXPECT_EQ(samples[0].value, 5u);
  EXPECT_EQ(*samples[1].name, "a.second");
  EXPECT_EQ(samples[1].kind, StatKind::kGauge);
  EXPECT_EQ(samples[1].value, 7u);

  // Re-registering a name replaces the probe instead of duplicating it
  // (hot-swapped spare devices re-register their ids).
  uint64_t c = 11;
  reg.RegisterCounter("z.first", [&c] { return c; });
  samples = reg.Collect();
  ASSERT_EQ(samples.size(), 2u);
  EXPECT_EQ(samples[0].value, 11u);
}

TEST(StatRegistryTest, HistogramPointersAreStable) {
  StatRegistry reg;
  LatencyHistogram* h1 = reg.Histogram("x.lat");
  for (int i = 0; i < 100; ++i) {
    reg.Histogram("h" + std::to_string(i));
  }
  EXPECT_EQ(reg.Histogram("x.lat"), h1);  // std::map nodes never move
  h1->Record(5000);
  EXPECT_EQ(reg.Histogram("x.lat")->count(), 1u);
}

TEST(TracerTest, WindowGatesRecording) {
  Tracer tracer;
  EXPECT_FALSE(tracer.Armed(0));  // disabled by default
  tracer.Enable(16);
  EXPECT_TRUE(tracer.Armed(0));
  tracer.SetWindow(1000, 2000);
  EXPECT_FALSE(tracer.Armed(999));
  EXPECT_TRUE(tracer.Armed(1000));
  EXPECT_FALSE(tracer.Armed(2000));
}

TEST(TracerTest, RingOverwritesOldestAndCountsTotal) {
  Tracer tracer;
  tracer.Enable(4);
  const uint16_t name = tracer.Intern("x.op");
  for (SimTime t = 0; t < 10; ++t) {
    tracer.Record(Tracer::kLaneDriver, name, t, t + 1);
  }
  EXPECT_EQ(tracer.size(), 4u);
  EXPECT_EQ(tracer.total_recorded(), 10u);
}

// Drives one small BIZA experiment with observability attached and returns
// the exports. Deterministic: everything is keyed by simulated time.
struct ObsRun {
  std::string trace_json;
  std::string csv;
  uint64_t fired_events = 0;
  uint64_t requests = 0;
  std::map<std::string, uint64_t> selector;  // biza.ghost.*, write_stalls
};

ObsRun RunObservedExperiment(bool attach_obs, bool enable_tracer) {
  Simulator sim;
  Observability obs;
  if (enable_tracer) {
    obs.tracer.Enable(1 << 14);
  }
  PlatformConfig config;
  config.zns = ZnsConfig::Zn540(/*num_zones=*/16, /*zone_capacity_blocks=*/256);
  config.MatchConvCapacity();
  if (attach_obs) {
    config.obs = &obs;
  }
  auto platform = Platform::Create(&sim, PlatformKind::kBiza, config);
  MicroWorkload workload(/*sequential=*/false, /*write=*/true,
                         /*request_blocks=*/4,
                         platform->block()->capacity_blocks() / 2, 7);
  Driver driver(&sim, platform->block(), &workload, /*iodepth=*/8);
  if (attach_obs) {
    driver.SetTracer(&obs.tracer);
    obs.sampler.Start(&sim, /*interval_ns=*/kMillisecond);
  }
  const DriverReport report = driver.Run(2000, kSecond);
  platform->Quiesce(&sim);

  ObsRun out;
  out.fired_events = sim.fired_events();
  out.requests = report.requests_completed;
  if (attach_obs) {
    std::ostringstream trace;
    obs.tracer.ExportJson(trace, /*pid=*/0, /*leading_comma=*/false);
    out.trace_json = trace.str();
    std::ostringstream csv;
    obs.sampler.WriteCsv(csv);
    out.csv = csv.str();
    for (const StatRegistry::Sample& sample : obs.registry.Collect()) {
      if (sample.name->rfind("biza.ghost.", 0) == 0 ||
          *sample.name == "biza.write_stalls") {
        out.selector[*sample.name] = sample.value;
      }
    }
  }
  return out;
}

TEST(TracerTest, ExportIsWellFormedJsonWithAllLayers) {
  const ObsRun run = RunObservedExperiment(/*attach_obs=*/true,
                                           /*enable_tracer=*/true);
  const std::string json = "[" + run.trace_json + "]";
  // Structural well-formedness: brackets and braces balance, no dangling
  // comma before a closer, quotes pair up.
  int depth = 0;
  bool in_string = false;
  char prev = 0;
  for (char c : json) {
    if (in_string) {
      if (c == '"' && prev != '\\') {
        in_string = false;
      }
    } else if (c == '"') {
      in_string = true;
    } else if (c == '[' || c == '{') {
      depth++;
    } else if (c == ']' || c == '}') {
      EXPECT_NE(prev, ',') << "dangling comma before closer";
      depth--;
      ASSERT_GE(depth, 0);
    }
    if (c != ' ' && c != '\n') {
      prev = c;
    }
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_string);
  // Spans from every layer of the stack appear.
  for (const char* name :
       {"driver.write", "biza.write", "sched.write", "zns.write",
        "nand.die_program", "process_name", "thread_name"}) {
    EXPECT_NE(json.find(name), std::string::npos) << name;
  }
}

TEST(SamplerTest, DeterministicAcrossRunnerThreadCounts) {
  // The same experiment run under the parallel experiment runner with 1 and
  // 8 threads must serialize byte-identical observability output: spans and
  // samples are keyed by simulated time, never wall clock.
  auto job = []() {
    return RunObservedExperiment(/*attach_obs=*/true, /*enable_tracer=*/true);
  };
  std::vector<std::function<ObsRun()>> jobs1(3, job), jobs8(3, job);
  const auto r1 = RunExperiments(std::move(jobs1), /*threads=*/1);
  const auto r8 = RunExperiments(std::move(jobs8), /*threads=*/8);
  ASSERT_EQ(r1.size(), r8.size());
  for (size_t i = 0; i < r1.size(); ++i) {
    EXPECT_EQ(r1[i].csv, r8[i].csv);
    EXPECT_EQ(r1[i].trace_json, r8[i].trace_json);
    EXPECT_EQ(r1[i].fired_events, r8[i].fired_events);
  }
  // The CSV has a header plus at least one sample row, all rows same arity.
  std::istringstream csv(r1[0].csv);
  std::string line;
  ASSERT_TRUE(std::getline(csv, line));
  EXPECT_EQ(line.rfind("time_s,", 0), 0u);
  const size_t cols = static_cast<size_t>(
      std::count(line.begin(), line.end(), ',')) + 1;
  size_t rows = 0;
  while (std::getline(csv, line)) {
    rows++;
    EXPECT_EQ(static_cast<size_t>(
                  std::count(line.begin(), line.end(), ',')) + 1, cols);
  }
  EXPECT_GE(rows, 2u);
}

TEST(StatRegistryTest, BizaExportsTheSelectorTierMix) {
  // The zone group selector classifies every submitted user block once (GC
  // writes bypass it), plus the first block of a write parked for a free
  // zone once more per park; the sampler CSV carries the same counters.
  const ObsRun run = RunObservedExperiment(/*attach_obs=*/true,
                                           /*enable_tracer=*/false);
  ASSERT_EQ(run.selector.size(), 8u);
  const uint64_t lookups = run.selector.at("biza.ghost.lookups");
  const uint64_t in_flight_blocks = 8 * 4;  // iodepth x request size
  EXPECT_GE(lookups, run.requests * 4);
  EXPECT_LE(lookups, run.requests * 4 + in_flight_blocks +
                         run.selector.at("biza.write_stalls"));
  EXPECT_GT(run.selector.at("biza.ghost.lru_hits"), 0u);
  EXPECT_GT(run.selector.at("biza.ghost.tracked_entries"), 0u);
  for (const auto& [name, value] : run.selector) {
    EXPECT_NE(run.csv.find(name), std::string::npos) << name;
  }
}

TEST(ObservabilityNeutrality, AttachedButDarkChangesNothing) {
  // Attaching the registry (pull probes) with the tracer disabled must not
  // perturb the simulation: same event count, same request count as a run
  // with no observability at all.
  const ObsRun bare = RunObservedExperiment(/*attach_obs=*/false,
                                            /*enable_tracer=*/false);
  const ObsRun dark = RunObservedExperiment(/*attach_obs=*/true,
                                            /*enable_tracer=*/false);
  EXPECT_EQ(bare.requests, dark.requests);
  // The sampler adds its own tick events but must not reorder or change
  // the workload's: request count above is the hard identity; the event
  // delta is exactly the sampler ticks plus the tick-scheduling epsilon.
  EXPECT_GE(dark.fired_events, bare.fired_events);
}

// ------------------------------------------------------- request front --
// Each engine counts and times each host request exactly once. Parked
// remainders, GC and rebuild migrations and reads re-dispatched around a dead
// member re-enter the engine's request body, never its request front, so the
// engine's request histograms and user_read_blocks equal what the driver
// saw complete.

struct FrontCase {
  PlatformKind kind;
  const char* engine;  // the registry prefix
};

class RequestFrontTest : public ::testing::TestWithParam<FrontCase> {
 protected:
  // The driver's completed requests, summed over its runs.
  void Add(const DriverReport& report) {
    writes_ += report.write_latency.count();
    reads_ += report.read_latency.count();
    read_blocks_ += report.bytes_read / kBlockSize;
  }

  void ExpectEachRequestOnce(const Observability& obs) const {
    const std::string engine = GetParam().engine;
    auto samples = [&](const std::string& name) -> uint64_t {
      const auto it = obs.registry.histograms().find(name);
      return it == obs.registry.histograms().end() ? 0 : it->second.count();
    };
    uint64_t user_read_blocks = 0;
    for (const StatRegistry::Sample& s : obs.registry.Collect()) {
      if (*s.name == engine + ".user_read_blocks") {
        user_read_blocks = s.value;
      }
    }
    EXPECT_GT(writes_, 0u);
    EXPECT_GT(reads_, 0u);
    EXPECT_EQ(samples(engine + ".write_latency_ns"), writes_);
    EXPECT_EQ(samples(engine + ".read_latency_ns"), reads_);
    EXPECT_EQ(user_read_blocks, read_blocks_);
  }

 private:
  uint64_t writes_ = 0;
  uint64_t reads_ = 0;
  uint64_t read_blocks_ = 0;
};

// CI's GC smoke geometry (24 x 4 MiB zones) under the Tencent mix: BIZA
// parks writes for free zones and GC migrates through gather writes while
// reads go on. (16 x 1 MiB zones, as in BizaExportsTheSelectorTierMix, are
// too few flash blocks for ConvSSD's FTL.)
TEST_P(RequestFrontTest, ParkedWritesAndGcAreNotHostRequests) {
  Simulator sim;
  Observability obs;
  PlatformConfig config;
  config.zns = ZnsConfig::Zn540(/*num_zones=*/24, /*zone_capacity_blocks=*/1024);
  config.MatchConvCapacity();
  config.obs = &obs;
  auto platform = Platform::Create(&sim, GetParam().kind, config);
  TraceProfile profile = TraceProfile::Tencent();
  profile.footprint_blocks = std::min<uint64_t>(
      profile.footprint_blocks, platform->block()->capacity_blocks() / 2);
  SyntheticTrace trace(profile);
  Driver driver(&sim, platform->block(), &trace, /*iodepth=*/32);
  Add(driver.Run(/*max_requests=*/15000, kSecond));
  platform->Quiesce(&sim);
  if (GetParam().kind == PlatformKind::kBiza) {
    EXPECT_GT(platform->biza()->stats().write_stalls, 0u);
    EXPECT_GT(platform->biza()->stats().gc_runs, 0u);
  }
  ExpectEachRequestOnce(obs);
}

// Member 1 dies 5 ms into a web run, a spare comes in, and a second web run
// reads and writes while the sweep migrates (the fingerprint rebuild setup).
TEST_P(RequestFrontTest, RebuildAndRedispatchedReadsAreNotHostRequests) {
  Simulator sim;
  Observability obs;
  PlatformConfig config;
  config.zns = ZnsConfig::Zn540(/*num_zones=*/64, /*zone_capacity_blocks=*/1024);
  config.MatchConvCapacity();
  config.faults.Device(1).die_at = 5 * kMillisecond;
  config.obs = &obs;
  auto platform = Platform::Create(&sim, GetParam().kind, config);
  TraceProfile profile = TraceProfile::Web();
  profile.footprint_blocks = std::min<uint64_t>(
      profile.footprint_blocks, platform->block()->capacity_blocks() / 3);
  SyntheticTrace trace(profile);
  Driver driver(&sim, platform->block(), &trace, /*iodepth=*/16);
  Add(driver.Run(/*max_requests=*/3000, 60 * kSecond));

  ASSERT_TRUE(platform->ReplaceMember(&sim, 1).ok());
  profile.seed++;
  SyntheticTrace foreground_trace(profile);
  Driver foreground(&sim, platform->block(), &foreground_trace,
                    /*iodepth=*/16);
  Add(foreground.Run(/*max_requests=*/3000, 60 * kSecond));
  sim.RunUntilIdle();
  EXPECT_GT(platform->rebuild()->chunks_migrated, 0u);
  EXPECT_NE(platform->rebuild()->finished_ns, 0u);
  ExpectEachRequestOnce(obs);
}

INSTANTIATE_TEST_SUITE_P(
    Engines, RequestFrontTest,
    ::testing::Values(FrontCase{PlatformKind::kBiza, "biza"},
                      FrontCase{PlatformKind::kZapRaid, "zapraid"},
                      FrontCase{PlatformKind::kMdraidConv, "mdraid"}),
    [](const auto& param_info) {
      return std::string(param_info.param.engine);
    });

// The record line is what tools/run_benches.sh and tools/check_bench.py
// read: the prefix, "kind" first, and each number at the precision its
// field has in BENCH_sim.json (a %.1f MB/s keeps its ".0", a %.0f rate has
// no point), so a re-run compares equal to the committed file.
TEST(BenchRecord, PinsPrefixKindFirstAndFieldPrecision) {
  EXPECT_EQ(BenchRecord("nvme_frontend")
                .Text("series", "q1_qd1")
                .Fixed("mbps", 113.0, 1)
                .Fixed("avg_us", 2318.5749, 2)
                .Fixed("device_per_user", 1.93724, 4)
                .Fixed("logical_events_per_s", 1475839.6, 0)
                .Int("pool_kb", 16384)
                .Line(),
            "BENCH_RECORD {\"kind\":\"nvme_frontend\",\"series\":\"q1_qd1\","
            "\"mbps\":113.0,\"avg_us\":2318.57,\"device_per_user\":1.9372,"
            "\"logical_events_per_s\":1475840,\"pool_kb\":16384}");
}

TEST(BenchRecord, EmbedsJsonAndEscapesText) {
  EXPECT_EQ(BenchRecord("histograms")
                .Json("histograms", "{\"biza.read_latency_ns\":{\"count\":1}}")
                .Text("bench", "a\"b\\c")
                .Line(),
            "BENCH_RECORD {\"kind\":\"histograms\","
            "\"histograms\":{\"biza.read_latency_ns\":{\"count\":1}},"
            "\"bench\":\"a\\\"b\\\\c\"}");
}

}  // namespace
}  // namespace biza
