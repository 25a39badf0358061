// Tenant isolation under aggressor bursts: the serving-frontend figure.
//
// A latency-class victim (4 KiB point reads, steady arrivals) shares the
// array with a batch-class aggressor (128 KiB scan reads in short violent
// spikes — an analytics job waking up twice a second). Three runs per
// platform:
//
//   solo  — the victim alone: its achievable tail with nobody else on the
//           array (the SLO baseline).
//   fifo  — shared array, FIFO admission: the strawman. During a spike the
//           aggressor parks a convoy of large scans ahead of the victim's
//           reads and the victim's p99.9 blows up with queue delay.
//   drr   — shared array, deficit-round-robin admission with per-tenant
//           in-flight caps: the aggressor is slowed to its fair share and
//           the victim's p99.9 stays within a small factor of solo.
//
// All latencies are measured from the *intended* arrival (coordinated-
// omission-free), so admission queueing is visible in the tail. One
// tenant_isolation record per platform feeds the CI smoke
// (tools/check_bench.py), which asserts DRR beats FIFO on victim p99.9.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/serve/serve_frontend.h"

using namespace biza;

namespace {

constexpr uint64_t kGlobalIodepth = 8;
constexpr double kVictimIops = 2000.0;
constexpr double kAggressorIops = 400.0;  // base rate; x160 during spikes

enum class Mode { kSolo, kFifo, kDrr };

const char* ModeName(Mode mode) {
  switch (mode) {
    case Mode::kSolo:
      return "solo";
    case Mode::kFifo:
      return "fifo";
    case Mode::kDrr:
      return "drr";
  }
  return "?";
}

struct CaseResult {
  double victim_p50_us = 0.0;
  double victim_p999_us = 0.0;
  double victim_queue_p999_us = 0.0;
  uint64_t aggressor_capped = 0;
  double aggressor_mbps = 0.0;
};

CaseResult RunCase(PlatformKind kind, Mode mode, uint64_t seed) {
  Simulator sim;
  PlatformConfig config = BenchConfig(seed + 1);
  auto platform = Platform::Create(&sim, kind, config);
  BlockTarget* target = platform->block();

  ServeConfig serve;
  serve.tenants.push_back(
      TenantSpec::ForClass(TenantClass::kLatency, "victim", kVictimIops));
  if (mode != Mode::kSolo) {
    serve.tenants.push_back(TenantSpec::ForClass(TenantClass::kBatch,
                                                 "aggressor", kAggressorIops));
    // The aggressor is a scan job: 128 KiB reads, with short violent spikes
    // (25 ms at 160x every 500 ms — 5% duty). Reads keep the interference
    // purely at the queueing level: a *write* aggressor's damage is NAND
    // programs and GC, which no admission policy can undo once the bytes are
    // accepted (afa_bench --tenants explores that regime). The spike rate
    // far exceeds array read bandwidth, so the admission window floods and
    // FIFO parks the victim behind the scan convoy; DRR's weights pop the
    // victim first, and the cap of one in-flight scan bounds the device-
    // level wait the victim can experience to a single 128 KiB transfer.
    serve.tenants.back().slo.inflight_cap = 1;
    serve.tenants.back().read_fraction = 1.0;
    serve.tenants.back().request_blocks = 32;
    ArrivalSpec& aggr = serve.tenants.back().arrival;
    aggr.burst_mult = 160.0;
    aggr.burst_period_s = 0.5;
    aggr.burst_on_s = 0.025;
  }
  // Modest footprint keeps GC cheap (mostly-dead zones, ample spares): the
  // figure isolates *admission* interference, not write-amp interference,
  // which afa_bench --tenants explores separately.
  serve.footprint_blocks = target->capacity_blocks() / 8;
  serve.policy =
      mode == Mode::kFifo ? AdmissionPolicy::kFifo : AdmissionPolicy::kDrr;
  serve.iodepth = kGlobalIodepth;
  serve.seed = seed + 1;
  serve.duration_ns = kSecond;

  ServeFrontend frontend(&sim, target, serve);
  Driver::Fill(&sim, target, frontend.config().footprint_blocks, 64);
  const std::vector<TenantReport> reports = frontend.Run();
  platform->Quiesce(&sim);

  CaseResult result;
  const DriverReport& victim = reports[0].report;
  result.victim_p50_us = victim.read_latency.Percentile(50.0) / 1e3;
  result.victim_p999_us = victim.read_latency.Percentile(99.9) / 1e3;
  result.victim_queue_p999_us = victim.queue_delay.Percentile(99.9) / 1e3;
  if (reports.size() > 1) {
    result.aggressor_capped = reports[1].cap_deferrals;
    result.aggressor_mbps = reports[1].report.TotalMBps();
  }
  RecordSimEvents(sim, victim);
  return result;
}

void RunPlatform(PlatformKind kind) {
  std::printf("platform %s\n", PlatformKindName(kind));
  std::printf("  %-5s %14s %14s %16s %14s %12s\n", "mode", "victim p50",
              "victim p99.9", "queue p99.9", "aggr capped", "aggr MB/s");

  double solo_p999 = 0.0;
  double p999[3] = {0.0, 0.0, 0.0};
  for (Mode mode : {Mode::kSolo, Mode::kFifo, Mode::kDrr}) {
    const std::vector<CaseResult> results = RunSeeded(
        [kind, mode](uint64_t seed) { return RunCase(kind, mode, seed); });
    std::vector<double> p50s, p999s, queues, mbps;
    uint64_t capped = 0;
    for (const CaseResult& r : results) {
      p50s.push_back(r.victim_p50_us);
      p999s.push_back(r.victim_p999_us);
      queues.push_back(r.victim_queue_p999_us);
      mbps.push_back(r.aggressor_mbps);
      capped += r.aggressor_capped;
    }
    const SeedStat p50 = MeanStddev(p50s);
    const SeedStat p999_stat = MeanStddev(p999s);
    const SeedStat queue = MeanStddev(queues);
    const SeedStat aggr = MeanStddev(mbps);
    std::printf("  %-5s %8.1f±%-4.1fus %8.1f±%-4.1fus %10.1f±%-4.1fus "
                "%14llu %10.1f\n",
                ModeName(mode), p50.mean, p50.stddev, p999_stat.mean,
                p999_stat.stddev, queue.mean, queue.stddev,
                static_cast<unsigned long long>(capped /
                                                results.size()),
                aggr.mean);
    p999[static_cast<int>(mode)] = p999_stat.mean;
    if (mode == Mode::kSolo) {
      solo_p999 = p999_stat.mean;
    }
  }

  const double fifo_ratio = solo_p999 > 0 ? p999[1] / solo_p999 : 0.0;
  const double drr_ratio = solo_p999 > 0 ? p999[2] / solo_p999 : 0.0;
  std::printf("  victim p99.9 vs solo: fifo %.2fx  drr %.2fx\n", fifo_ratio,
              drr_ratio);
  BenchRecord("tenant_isolation")
      .Text("platform", PlatformKindName(kind))
      .Fixed("solo_p999_us", solo_p999, 1)
      .Fixed("fifo_p999_us", p999[1], 1)
      .Fixed("drr_p999_us", p999[2], 1)
      .Fixed("fifo_ratio", fifo_ratio, 3)
      .Fixed("drr_ratio", drr_ratio, 3)
      .Print();
}

}  // namespace

int main() {
  BenchMetricScope metric("tenant_isolation");
  PrintTitle("tenant_isolation",
             "victim tail latency under aggressor bursts (serving frontend)");
  PrintPaperNote(
      "not a paper figure — serving-tier companion experiment: DRR admission "
      "keeps a latency tenant's p99.9 within a small factor of its solo "
      "baseline while FIFO lets aggressor bursts blow it up");
  std::printf("victim: latency class, %.0f IOPS 4 KiB reads; aggressor: "
              "batch class, %.0f IOPS base 128 KiB scan reads, 160x spikes "
              "(25 ms of every 500 ms); global iodepth %llu, %d seeds\n\n",
              kVictimIops, kAggressorIops,
              static_cast<unsigned long long>(kGlobalIodepth), BenchSeeds());
  RunPlatform(PlatformKind::kBiza);
  RunPlatform(PlatformKind::kMdraidConv);
  return 0;
}
