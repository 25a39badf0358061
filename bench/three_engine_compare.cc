// Three-engine design-point comparison: write amplification, tail write
// latency and CPU efficiency for the three block-interface engines on
// identical ZNS members:
//
//   mdraid+dmzap — in-place parity over a per-SSD translation layer,
//   BIZA         — ZRWA-anchored self-governing array (the paper's design),
//   ZapRAID      — log-structured group RAID over raw zones (no ZRWA).
//
// One random-overwrite run per engine: prefill half the exposed capacity,
// then overwrite it ~1.5x so every engine reaches steady-state GC. The same
// churn hits each engine, so the WA split (data vs parity), the GC-era tail
// and the CPU bill are directly comparable design-point measurements rather
// than separately tuned best cases.
//
// Expected shape: ZapRAID's group-granular log-structured parity avoids
// mdraid's read-modify-write parity traffic but pays data-relocation WA
// that BIZA's ZRWA in-place updates avoid; mdraid burns the most CPU in the
// dm-zap translation layer; BIZA holds the lowest GC-era tails.
//
// One three_engine record per engine carries its WA split (seed means) for
// the CI smoke (tools/check_bench.py), which asserts every WA stays physical.
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "src/metrics/wa_report.h"

namespace biza {
namespace {

struct EngineCell {
  double wa_data = 0;
  double wa_parity = 0;
  double p50_us = 0;
  double p99_us = 0;
  double p999_us = 0;
  double mbps = 0;
  double cpu_pct = 0;
  double wa_total() const { return wa_data + wa_parity; }
};

EngineCell RunCase(PlatformKind kind, uint64_t seed) {
  Simulator sim;
  PlatformConfig config = BenchConfig(41 + seed);
  // Fair buffers (§5.4) and matched utilization so every engine runs GC.
  config.mdraid.stripe_cache_blocks = 14336;
  config.biza.exposed_capacity_ratio = 0.60;
  config.zapraid.exposed_capacity_ratio = 0.60;
  auto platform = Platform::Create(&sim, kind, config);
  BlockTarget* target = platform->block();

  const uint64_t half = target->capacity_blocks() / 2;
  Driver::Fill(&sim, target, half);

  const SimTime start = sim.Now();
  MicroWorkload churn(/*sequential=*/false, /*write=*/true,
                      /*request_blocks=*/8, /*footprint=*/half, 3 + seed);
  Driver driver(&sim, target, &churn, /*iodepth=*/16);
  // 3x the prefilled footprint: with parity the log wraps the raw flash
  // capacity, so reclaim (not clean appends) is the steady state measured.
  const uint64_t requests = (3 * half) / 8;
  const DriverReport report = driver.Run(requests, 16 * kSecond);
  const SimTime elapsed = sim.Now() - start;
  platform->Quiesce(&sim);

  const uint64_t user_blocks = half + report.bytes_written / kBlockSize;
  const WaBreakdown wa = platform->CollectWa(user_blocks);

  SimTime cpu_ns = 0;
  for (const auto& [component, ns] : platform->CpuBreakdown()) {
    (void)component;
    cpu_ns += ns;
  }
  RecordSimEvents(sim, report);

  EngineCell cell;
  cell.wa_data = wa.DataRatio();
  cell.wa_parity = wa.ParityRatio();
  cell.p50_us = static_cast<double>(report.write_latency.Percentile(50)) / 1e3;
  cell.p99_us = static_cast<double>(report.write_latency.Percentile(99)) / 1e3;
  cell.p999_us =
      static_cast<double>(report.write_latency.Percentile(99.9)) / 1e3;
  cell.mbps = report.WriteMBps();
  cell.cpu_pct =
      static_cast<double>(cpu_ns) / static_cast<double>(elapsed) * 100.0;
  return cell;
}

void Run() {
  PrintTitle("Three-engine comparison",
             "WA, GC-era tail latency and CPU across biza|mdraid|zapraid");
  PrintPaperNote(
      "mdraid pays read-modify-write parity + translation-layer CPU; "
      "ZapRAID trades relocation WA for log-structured parity with no "
      "ZRWA dependency; BIZA anchors updates in ZRWA for the lowest WA "
      "and GC-era tails");

  const std::vector<PlatformKind> kinds = {
      PlatformKind::kMdraidDmzap, PlatformKind::kBiza, PlatformKind::kZapRaid};
  const int nseeds = BenchSeeds();
  std::vector<std::function<EngineCell()>> jobs;
  for (PlatformKind kind : kinds) {
    for (int s = 0; s < nseeds; ++s) {
      jobs.push_back(
          [kind, s]() { return RunCase(kind, static_cast<uint64_t>(s)); });
    }
  }
  const std::vector<EngineCell> results = RunExperiments(std::move(jobs));

  std::printf("%d seeds per row, mean±stddev (BIZA_BENCH_SEEDS overrides)\n",
              nseeds);
  std::printf("%-14s %18s %10s %22s %9s %10s\n", "engine",
              "WA data+par=total", "p50(us)", "p99/p99.9(us)", "MB/s",
              "CPU usage");
  size_t job_index = 0;
  for (PlatformKind kind : kinds) {
    std::vector<double> wa_d, wa_p, wa_t, p50, p99, p999, mbps, cpu;
    for (int s = 0; s < nseeds; ++s) {
      const EngineCell& c = results[job_index++];
      wa_d.push_back(c.wa_data);
      wa_p.push_back(c.wa_parity);
      wa_t.push_back(c.wa_total());
      p50.push_back(c.p50_us);
      p99.push_back(c.p99_us);
      p999.push_back(c.p999_us);
      mbps.push_back(c.mbps);
      cpu.push_back(c.cpu_pct);
    }
    const SeedStat t = MeanStddev(wa_t);
    std::printf("%-14s %5.2f+%4.2f=%4.2f±%4.2f %8.0f  %8.0f/%8.0f %9.0f %8.1f%%\n",
                PlatformKindName(kind), MeanStddev(wa_d).mean,
                MeanStddev(wa_p).mean, t.mean, t.stddev, MeanStddev(p50).mean,
                MeanStddev(p99).mean, MeanStddev(p999).mean,
                MeanStddev(mbps).mean, MeanStddev(cpu).mean);
    BenchRecord("three_engine")
        .Text("engine", PlatformKindName(kind))
        .Fixed("wa_data", MeanStddev(wa_d).mean, 4)
        .Fixed("wa_parity", MeanStddev(wa_p).mean, 4)
        .Fixed("wa_total", t.mean, 4)
        .Print();
  }
  std::printf(
      "\n(same churn per engine: fill half the exposed capacity, overwrite "
      "3x at iodepth 16)\n");
}

}  // namespace
}  // namespace biza

int main() {
  biza::BenchMetricScope metrics("three_engine_compare");
  biza::Run();
  return 0;
}
