// Fault tolerance: write latency percentiles (p50/p99/p99.9) and throughput
// for BIZA under the fault-plane scenarios the paper's AFA setting implies
// but does not measure:
//
//   healthy    — no faults (baseline)
//   fail-slow  — one member completes media work 4x slower (gray failure)
//   degraded   — one member dead: chunk writes skip it (parity-only
//                phantoms), reads of its chunks reconstruct from survivors
//   rebuild    — one member hot-swapped for a fresh spare; the online
//                rebuild sweep competes with foreground I/O
//
// Expected shape: fail-slow inflates the tail far more than the median (the
// slow member gates one in n stripes); degraded mode costs extra reads on
// reconstruction but keeps writes near-healthy (phantom chunks skip one
// program); rebuild adds migration traffic throttled to stay off the
// foreground path's tail.
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"

namespace biza {
namespace {

enum class Mode { kHealthy, kFailSlow, kDegraded, kRebuild };

const char* ModeName(Mode mode) {
  switch (mode) {
    case Mode::kHealthy:
      return "healthy";
    case Mode::kFailSlow:
      return "fail-slow(4x)";
    case Mode::kDegraded:
      return "degraded";
    case Mode::kRebuild:
      return "rebuild";
  }
  return "?";
}

struct FtResult {
  double write_mbps = 0;
  double p50_us = 0;
  double p99_us = 0;
  double p999_us = 0;
  double degraded_writes = 0;
  double degraded_reads = 0;
  double rebuild_blocks = 0;
};

FtResult RunCase(Mode mode, uint64_t seed) {
  Simulator sim;
  PlatformConfig config = BenchConfig(3 + seed);
  if (mode == Mode::kFailSlow) {
    config.faults.Device(1).latency_mult = 4.0;
  }
  auto platform = Platform::Create(&sim, PlatformKind::kBiza, config);
  BlockTarget* target = platform->block();

  // Steady-state data set so degraded reads and the rebuild sweep have real
  // content to reconstruct.
  const uint64_t footprint = target->capacity_blocks() / 2;
  Driver::Fill(&sim, target, footprint, 64);

  if (mode == Mode::kDegraded) {
    platform->biza()->SetDeviceFailed(1, true);
  }
  if (mode == Mode::kRebuild) {
    const Status s = platform->ReplaceMember(&sim, 1);
    if (!s.ok()) {
      std::fprintf(stderr, "ReplaceMember: %s\n", s.ToString().c_str());
    }
  }

  // Mixed 16 KiB random updates over the filled footprint, measured while
  // the fault (and, for rebuild, the sweep) is active.
  MicroWorkload workload(false, true, 4, footprint, 17 + seed);
  Driver driver(&sim, target, &workload, /*iodepth=*/32);
  const DriverReport report = driver.Run(20000, 2 * kSecond);

  FtResult result;
  result.write_mbps = report.WriteMBps();
  result.p50_us = static_cast<double>(report.write_latency.Percentile(50)) / 1e3;
  result.p99_us = static_cast<double>(report.write_latency.Percentile(99)) / 1e3;
  result.p999_us =
      static_cast<double>(report.write_latency.Percentile(99.9)) / 1e3;
  const BizaStats& stats = platform->biza()->stats();
  result.degraded_writes = static_cast<double>(stats.degraded_writes);
  result.degraded_reads = static_cast<double>(stats.degraded_reads);
  if (mode == Mode::kRebuild) {
    sim.RunUntilIdle();  // drain the sweep for the migration count
    result.rebuild_blocks =
        static_cast<double>(platform->rebuild()->chunks_migrated);
  }
  RecordSimEvents(sim);
  return result;
}

void Run() {
  PrintTitle("Fault tolerance",
             "BIZA write tails under fail-slow, degraded mode, and rebuild");
  PrintPaperNote(
      "fail-slow gates the tail, not the median; degraded writes stay "
      "near-healthy (phantom chunks skip one program); the throttled "
      "rebuild sweep bounds its tail impact");

  const std::vector<Mode> modes = {Mode::kHealthy, Mode::kFailSlow,
                                   Mode::kDegraded, Mode::kRebuild};
  const int nseeds = BenchSeeds();
  std::printf("%d seeds per mode, mean±stddev\n\n", nseeds);

  std::vector<std::function<FtResult()>> jobs;
  for (Mode mode : modes) {
    for (int s = 0; s < nseeds; ++s) {
      jobs.push_back(
          [mode, s]() { return RunCase(mode, static_cast<uint64_t>(s)); });
    }
  }
  const std::vector<FtResult> results = RunExperiments(std::move(jobs));

  std::printf("%-14s %16s %14s %14s %14s %11s %11s %9s\n", "mode",
              "write MB/s", "p50 (us)", "p99 (us)", "p99.9 (us)", "degr_wr",
              "degr_rd", "rebuilt");
  size_t job_index = 0;
  for (Mode mode : modes) {
    std::vector<double> mbps, p50, p99, p999, dw, dr, rb;
    for (int s = 0; s < nseeds; ++s) {
      const FtResult& r = results[job_index++];
      mbps.push_back(r.write_mbps);
      p50.push_back(r.p50_us);
      p99.push_back(r.p99_us);
      p999.push_back(r.p999_us);
      dw.push_back(r.degraded_writes);
      dr.push_back(r.degraded_reads);
      rb.push_back(r.rebuild_blocks);
    }
    const SeedStat m = MeanStddev(mbps);
    const SeedStat a = MeanStddev(p50);
    const SeedStat b = MeanStddev(p99);
    const SeedStat c = MeanStddev(p999);
    std::printf("%-14s %9.0f±%-5.0f %9.0f±%-4.0f %9.0f±%-4.0f %9.0f±%-4.0f "
                "%11.0f %11.0f %9.0f\n",
                ModeName(mode), m.mean, m.stddev, a.mean, a.stddev, b.mean,
                b.stddev, c.mean, c.stddev, MeanStddev(dw).mean,
                MeanStddev(dr).mean, MeanStddev(rb).mean);
  }
}

// ---------------------------------------------------------------------------
// Gray-failure self-defense (src/health, DESIGN.md): read tails with one
// member 8x fail-slow, with and without the mitigation plane, for both the
// BIZA engine and the mdraid+ConvSSD baseline.
//
// Expected shape: unmitigated, the slow member gates ~1/n of reads and
// convoys its queue, inflating p99.9 by an order of magnitude; mitigated,
// the detector turns the member gray during the fill and reads are hedged
// or reconstructed around it, holding p99.9 within a small factor of
// healthy at the cost of extra survivor reads.

enum class GrayMode { kHealthy, kUnmitigated, kMitigated };

const char* GrayModeName(GrayMode mode) {
  switch (mode) {
    case GrayMode::kHealthy:
      return "healthy";
    case GrayMode::kUnmitigated:
      return "gray-8x";
    case GrayMode::kMitigated:
      return "gray-8x+mitig";
  }
  return "?";
}

struct GrayResult {
  double read_mbps = 0;
  double p50_us = 0;
  double p99_us = 0;
  double p999_us = 0;
  double hedged = 0;
  double recon_around = 0;
  double gray_transitions = 0;
};

GrayResult RunGrayCase(PlatformKind kind, GrayMode mode, uint64_t seed) {
  Simulator sim;
  PlatformConfig config = BenchConfig(11 + seed);
  if (mode != GrayMode::kHealthy) {
    config.faults.Device(1).latency_mult = 8.0;
  }
  if (mode == GrayMode::kMitigated) {
    config.health.enabled = true;
  }
  auto platform = Platform::Create(&sim, kind, config);
  BlockTarget* target = platform->block();

  // The fill feeds the monitor's write stream, so under mitigation the slow
  // member is already gray when the measured read phase starts.
  const uint64_t footprint = target->capacity_blocks() / 2;
  Driver::Fill(&sim, target, footprint, 64);
  // Drain fill-triggered GC so residual relocation traffic doesn't pollute
  // the measured read tail (the healthy baseline in particular), then warm
  // up: the first iodepth batch of reads lands on cold scheduler queues and
  // would otherwise own the healthy p99.9 by itself.
  platform->Quiesce(&sim);
  {
    MicroWorkload warmup(false, false, 4, footprint, 7);
    Driver warm(&sim, target, &warmup, /*iodepth=*/32);
    warm.Run(2000, kSecond / 10);
  }

  // Random 16 KiB reads over the filled footprint.
  MicroWorkload workload(false, false, 4, footprint, 29 + seed);
  Driver driver(&sim, target, &workload, /*iodepth=*/32);
  const DriverReport report = driver.Run(20000, 2 * kSecond);

  GrayResult result;
  result.read_mbps = report.ReadMBps();
  result.p50_us = static_cast<double>(report.read_latency.Percentile(50)) / 1e3;
  result.p99_us = static_cast<double>(report.read_latency.Percentile(99)) / 1e3;
  result.p999_us =
      static_cast<double>(report.read_latency.Percentile(99.9)) / 1e3;
  if (platform->biza() != nullptr) {
    const ReadMitigationStats& m = platform->biza()->stats().mitigation;
    result.hedged = static_cast<double>(m.hedged_reads);
    result.recon_around = static_cast<double>(m.recon_around_reads);
  } else if (platform->mdraid() != nullptr) {
    const ReadMitigationStats& m = platform->mdraid()->stats().mitigation;
    result.hedged = static_cast<double>(m.hedged_reads);
    result.recon_around = static_cast<double>(m.recon_around_reads);
  }
  if (platform->health() != nullptr) {
    result.gray_transitions =
        static_cast<double>(platform->health()->stats().gray_transitions);
  }
  RecordSimEvents(sim);
  return result;
}

void RunGray() {
  PrintTitle("Gray-failure self-defense",
             "read tails with one member 8x fail-slow, mitigated vs not");
  PrintPaperNote(
      "the acting fail-slow detector (hedged + reconstruct-around reads) "
      "holds the mitigated read p99.9 within a small factor of healthy, "
      "where the unmitigated gray member inflates it by an order of "
      "magnitude");

  const std::vector<PlatformKind> kinds = {PlatformKind::kBiza,
                                           PlatformKind::kMdraidConv};
  const std::vector<GrayMode> modes = {
      GrayMode::kHealthy, GrayMode::kUnmitigated, GrayMode::kMitigated};
  const int nseeds = BenchSeeds();
  std::printf("%d seeds per cell, mean±stddev\n\n", nseeds);

  std::vector<std::function<GrayResult()>> jobs;
  for (PlatformKind kind : kinds) {
    for (GrayMode mode : modes) {
      for (int s = 0; s < nseeds; ++s) {
        jobs.push_back([kind, mode, s]() {
          return RunGrayCase(kind, mode, static_cast<uint64_t>(s));
        });
      }
    }
  }
  const std::vector<GrayResult> results = RunExperiments(std::move(jobs));

  std::printf("%-15s %-14s %12s %12s %12s %12s %8s %9s %6s\n", "platform",
              "mode", "read MB/s", "p50 (us)", "p99 (us)", "p99.9 (us)",
              "hedged", "recon_ard", "gray");
  size_t job_index = 0;
  for (PlatformKind kind : kinds) {
    double healthy_p999 = 0.0;
    for (GrayMode mode : modes) {
      std::vector<double> mbps, p50, p99, p999, hedged, recon, gray;
      for (int s = 0; s < nseeds; ++s) {
        const GrayResult& r = results[job_index++];
        mbps.push_back(r.read_mbps);
        p50.push_back(r.p50_us);
        p99.push_back(r.p99_us);
        p999.push_back(r.p999_us);
        hedged.push_back(r.hedged);
        recon.push_back(r.recon_around);
        gray.push_back(r.gray_transitions);
      }
      const SeedStat m = MeanStddev(mbps);
      const SeedStat a = MeanStddev(p50);
      const SeedStat b = MeanStddev(p99);
      const SeedStat c = MeanStddev(p999);
      if (mode == GrayMode::kHealthy) {
        healthy_p999 = c.mean;
      }
      std::printf("%-15s %-14s %7.0f±%-4.0f %8.0f±%-3.0f %8.0f±%-3.0f "
                  "%8.0f±%-3.0f %8.0f %9.0f %6.0f\n",
                  PlatformKindName(kind), GrayModeName(mode), m.mean, m.stddev,
                  a.mean, a.stddev, b.mean, b.stddev, c.mean, c.stddev,
                  MeanStddev(hedged).mean, MeanStddev(recon).mean,
                  MeanStddev(gray).mean);
      if (mode != GrayMode::kHealthy && healthy_p999 > 0.0) {
        std::printf("%-15s   p99.9 vs healthy: %.1fx\n", "",
                    c.mean / healthy_p999);
      }
    }
    std::printf("\n");
  }
}

}  // namespace
}  // namespace biza

int main() {
  biza::BenchMetricScope metrics("fault_tolerance");
  biza::Run();
  biza::RunGray();
  return 0;
}
