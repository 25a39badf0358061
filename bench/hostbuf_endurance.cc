// Host write-buffer endurance: device writes and write amplification as a
// function of host-side buffer size, for the BIZA and ZapRAID engines.
//
// The buffer sits between the workload and the array, absorbing sub-ZRWA
// hot updates (repeat writes to a pooled block cost zero device writes) and
// flushing zone-sized contiguous runs. Two opposing effects compete:
//
//  - ERODE: every absorbed hot update is a device write that never happens,
//    so the device-level WA input shrinks — and what does reach the device
//    arrives as large sequential runs that stripe and GC cleanly.
//  - COMPOUND: what survives the pool has had its short-reuse content
//    stripped out, so the residue is colder and BIZA's selector has less
//    hot/cold contrast to exploit; an engine whose endurance depends on
//    absorbing hot updates itself (BIZA's ZRWA in-place path) loses those
//    wins to the buffer rather than gaining new ones.
//
// One hostbuf_endurance record per point feeds tools/compare_bench.py (via
// BENCH_sim.json) and the CI smoke (tools/check_bench.py); EXPERIMENTS.md
// records the erode-vs-compound conclusion.
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "src/metrics/wa_report.h"

namespace biza {
namespace {

struct EnduranceCell {
  double user_blocks = 0;    // blocks the workload wrote (front of buffer)
  double device_blocks = 0;  // blocks the devices received from the engine
  double wa_total = 0;       // flash programs / user blocks
  double absorbed = 0;       // hot updates retired inside the pool
  double flush_runs = 0;
};

EnduranceCell RunCase(PlatformKind kind, uint64_t hostbuf_blocks,
                      uint64_t seed) {
  Simulator sim;
  TraceProfile profile = TraceProfile::Casa();
  PlatformConfig config = BenchConfig(profile.seed + 11 + seed);
  if (hostbuf_blocks > 0) {
    config.hostbuf.enabled = true;
    config.hostbuf.mode = HostBufferMode::kWriteBack;
    config.hostbuf.capacity_blocks = hostbuf_blocks;
  }
  auto platform = Platform::Create(&sim, kind, config);

  // CASA-shaped write stream: half the writes hammer a small hot set — the
  // regime where host-side absorption competes with the engine's own
  // hot-update machinery (ZRWA in-place for BIZA, none for ZapRAID).
  TraceProfile writes_only = profile;
  writes_only.seed += seed;
  writes_only.write_ratio = 1.0;
  writes_only.footprint_blocks = std::min<uint64_t>(
      profile.footprint_blocks, platform->block()->capacity_blocks() / 2);
  SyntheticTrace trace(writes_only);
  Driver driver(&sim, platform->block(), &trace, /*iodepth=*/16);
  const SimTime interval =
      std::max<SimTime>(1, writes_only.avg_write_blocks * kBlockSize *
                               kSecond / (400 * 1024 * 1024));
  driver.SetArrivalInterval(interval);
  const DriverReport report = driver.Run(40000, 3 * kSecond);
  platform->Quiesce(&sim);

  EnduranceCell cell;
  cell.user_blocks =
      static_cast<double>(report.bytes_written / kBlockSize);
  uint64_t device_host_written = 0;
  for (const ZnsDevice* dev : platform->zns_devices()) {
    device_host_written += dev->stats().host_written_blocks;
  }
  cell.device_blocks = static_cast<double>(device_host_written);
  const WaBreakdown wa =
      platform->CollectWa(report.bytes_written / kBlockSize);
  cell.wa_total = wa.TotalRatio();
  if (platform->hostbuf() != nullptr) {
    cell.absorbed =
        static_cast<double>(platform->hostbuf()->stats().absorbed_blocks);
    cell.flush_runs =
        static_cast<double>(platform->hostbuf()->stats().flush_runs);
  }
  RecordSimEvents(sim, report);
  return cell;
}

void Run() {
  PrintTitle("Host-buffer endurance",
             "device writes and WA vs host write-buffer size");
  PrintPaperNote(
      "absorption erodes device writes for both engines at a similar rate "
      "(~20% at a 16 MiB pool), so the host tier compounds both engines' "
      "endurance and BIZA keeps its on-device WA lead — it does not erode "
      "BIZA's advantage even though ZRWA and the pool chase the same "
      "short-reuse updates");

  const std::vector<std::pair<const char*, PlatformKind>> kinds = {
      {"biza", PlatformKind::kBiza}, {"zapraid", PlatformKind::kZapRaid}};
  // 0 = no buffer; then 1/4/16 MiB pools (256 KiB blocks each = 4 KiB).
  const std::vector<uint64_t> sizes = {0, 256, 1024, 4096};

  const int nseeds = BenchSeeds();
  std::vector<std::function<EnduranceCell()>> jobs;
  for (const auto& [name, kind] : kinds) {
    (void)name;
    for (uint64_t size : sizes) {
      for (int seed = 0; seed < nseeds; ++seed) {
        const PlatformKind k = kind;
        jobs.push_back([k, size, seed]() {
          return RunCase(k, size, static_cast<uint64_t>(seed));
        });
      }
    }
  }
  const std::vector<EnduranceCell> results = RunExperiments(std::move(jobs));

  std::printf("%d seeds per cell, CASA-shaped write stream, write-back pool\n\n",
              nseeds);
  std::printf("%-9s %10s %14s %14s %10s %10s %10s\n", "engine", "pool_kb",
              "user_blocks", "device_blocks", "dev/user", "wa_total",
              "absorbed");
  size_t job_index = 0;
  for (const auto& [name, kind] : kinds) {
    (void)kind;
    double baseline_device = 0;
    for (uint64_t size : sizes) {
      std::vector<double> user, device, wa, absorbed;
      for (int seed = 0; seed < nseeds; ++seed) {
        const EnduranceCell& c = results[job_index++];
        user.push_back(c.user_blocks);
        device.push_back(c.device_blocks);
        wa.push_back(c.wa_total);
        absorbed.push_back(c.absorbed);
      }
      const SeedStat u = MeanStddev(user);
      const SeedStat d = MeanStddev(device);
      const SeedStat w = MeanStddev(wa);
      const SeedStat ab = MeanStddev(absorbed);
      if (size == 0) {
        baseline_device = d.mean;
      }
      const double dev_per_user = u.mean > 0 ? d.mean / u.mean : 0.0;
      std::printf("%-9s %10llu %14.0f %14.0f %10.3f %10.3f %10.0f\n", name,
                  static_cast<unsigned long long>(size * 4), u.mean, d.mean,
                  dev_per_user, w.mean, ab.mean);
      BenchRecord("hostbuf_endurance")
          .Text("engine", name)
          .Int("pool_kb", size * 4)
          .Fixed("user_blocks", u.mean, 0)
          .Fixed("device_blocks", d.mean, 0)
          .Fixed("device_per_user", dev_per_user, 4)
          .Fixed("wa_total", w.mean, 4)
          .Fixed("absorbed", ab.mean, 0)
          .Fixed("device_writes_vs_nobuf",
                 baseline_device > 0 ? d.mean / baseline_device : 1.0, 4)
          .Print();
    }
    std::printf("\n");
  }
}

}  // namespace
}  // namespace biza

int main() {
  biza::BenchMetricScope metrics("hostbuf_endurance");
  biza::Run();
  return 0;
}
