// Figure 5: intra-zone parallelism — 1 vs 32 in-flight writes per zone.
//
// Paper observation (§3.2): a single in-flight write loses up to 65.3%
// (54.5% on average) of a zone's bandwidth. The 32-deep variant is only
// safe because BIZA's ZRWA-aware sliding-window scheduler prevents
// reorder-induced write failures; this bench drives both through the
// scheduler on a raw simulated ZN540.
#include <cstdio>
#include <memory>

#include "bench/bench_util.h"
#include "src/biza/zone_scheduler.h"
#include "src/zns/zns_device.h"

namespace biza {
namespace {

// Writes `total_requests` requests of `req_blocks` into fresh zones with at
// most `depth` in flight, returning throughput in MB/s. The request count
// keeps the whole bench above 0.2 s of wall clock on four threads, so its
// events/s record measures the simulator rather than process start-up and
// scheduling noise; 400 zones hold the 192 KiB case (391 zones' worth).
double RunDepth(uint64_t req_blocks, int depth) {
  Simulator sim;
  ZnsConfig config = ZnsConfig::Zn540(/*num_zones=*/400, /*zone_cap=*/6144);
  config.seed = depth;
  ZnsDevice dev(&sim, config);

  const uint64_t total_requests = 50000;
  uint64_t issued = 0;
  uint64_t completed = 0;
  int inflight = 0;
  SimTime last_done = 0;
  uint32_t zone = 0;
  (void)dev.OpenZone(zone, /*with_zrwa=*/true);
  auto sched = std::make_unique<ZoneScheduler>(&dev, zone);

  std::function<void()> pump = [&]() {
    while (inflight < depth && issued < total_requests) {
      if (sched->free_blocks() < req_blocks) {
        if (!sched->Idle()) {
          return;  // wait for the zone to drain before switching
        }
        (void)sched->Seal();
        zone++;
        (void)dev.OpenZone(zone, true);
        sched = std::make_unique<ZoneScheduler>(&dev, zone);
      }
      const uint64_t off = sched->Allocate(req_blocks);
      issued++;
      inflight++;
      sched->SubmitWrite(off, std::vector<uint64_t>(req_blocks, issued), {},
                         [&](const Status& status) {
                           (void)status;
                           inflight--;
                           completed++;
                           last_done = sim.Now();
                           pump();
                         });
    }
  };
  pump();
  sim.RunUntilIdle();
  RecordSimEvents(sim);
  return ThroughputMBps(completed * req_blocks * kBlockSize, last_done);
}

void Run() {
  PrintTitle("Figure 5", "intra-zone parallelism: 1 vs 32 in-flight writes");
  PrintPaperNote(
      "1 in-flight write loses up to 65.3% (54.5% avg) of zone bandwidth "
      "across 4-192 KB write sizes (ZN540 single zone ~1092 MB/s)");

  std::printf("%8s %12s %12s %10s\n", "size", "1 in-flight", "32 in-flight",
              "loss");
  double loss_sum = 0;
  double loss_max = 0;
  const uint64_t sizes[] = {1, 4, 16, 32, 48};  // 4K .. 192K
  std::vector<std::function<double()>> jobs;
  for (uint64_t blocks : sizes) {
    for (int depth : {1, 32}) {
      jobs.push_back([blocks, depth]() { return RunDepth(blocks, depth); });
    }
  }
  const std::vector<double> results = RunExperiments(std::move(jobs));
  size_t job_index = 0;
  for (uint64_t blocks : sizes) {
    const double one = results[job_index++];
    const double many = results[job_index++];
    const double loss = many > 0 ? (1.0 - one / many) * 100.0 : 0.0;
    loss_sum += loss;
    loss_max = std::max(loss_max, loss);
    std::printf("%6lluK %9.0f MB/s %9.0f MB/s %8.1f%%\n",
                static_cast<unsigned long long>(blocks * 4), one, many, loss);
  }
  std::printf("\nmeasured loss: max %.1f%%, avg %.1f%% (paper: max 65.3%%, avg 54.5%%)\n",
              loss_max, loss_sum / 5.0);
}

}  // namespace
}  // namespace biza

int main() {
  biza::BenchMetricScope metrics("fig05_intra_zone");
  biza::Run();
  return 0;
}
