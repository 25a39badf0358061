// Closed-loop workload drivers.
//
// Driver replays a WorkloadGenerator against a BlockTarget keeping
// `iodepth` requests in flight (fio's default mode, iodepth 32 in §5.1),
// recording per-request latency histograms and byte counters in virtual
// time. ZonedSeqDriver drives a ZonedTarget (RAIZN) with the only pattern
// it accepts: sequential writes per zone, parallel across zones.
#ifndef BIZA_SRC_WORKLOAD_DRIVER_H_
#define BIZA_SRC_WORKLOAD_DRIVER_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/common/histogram.h"
#include "src/common/rng.h"
#include "src/common/units.h"
#include "src/engines/target.h"
#include "src/metrics/tracer.h"
#include "src/sim/simulator.h"
#include "src/workload/workload.h"

namespace biza {

struct DriverReport {
  LatencyHistogram write_latency;
  LatencyHistogram read_latency;
  // Open-loop only: intended-arrival -> issue delay, recorded for every
  // arrival (0 when the iodepth cap was free). write/read latencies are
  // measured from the *intended* arrival, so queue delay is already part of
  // them — this histogram separates out the admission share. Empty in
  // closed-loop mode.
  LatencyHistogram queue_delay;
  uint64_t bytes_written = 0;
  uint64_t bytes_read = 0;
  uint64_t requests_completed = 0;
  // Open-loop arrivals that found the iodepth cap full and had to wait.
  uint64_t arrivals_deferred = 0;
  uint64_t verify_failures = 0;
  // Requests issued but never completed, plus open-loop arrivals never
  // issued, when the event queue drained: nonzero only when the target
  // parked requests it could never finish (a wedged array).
  uint64_t stranded_requests = 0;
  SimTime elapsed_ns = 0;

  double WriteMBps() const { return ThroughputMBps(bytes_written, elapsed_ns); }
  double ReadMBps() const { return ThroughputMBps(bytes_read, elapsed_ns); }
  double TotalMBps() const {
    return ThroughputMBps(bytes_written + bytes_read, elapsed_ns);
  }
};

// Deterministic content pattern for a block write.
inline uint64_t PatternFor(uint64_t block, uint64_t epoch) {
  uint64_t x = block * 0x9E3779B97F4A7C15ULL + epoch + 1;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

class Driver {
 public:
  Driver(Simulator* sim, BlockTarget* target, WorkloadGenerator* generator,
         int iodepth, bool verify_reads = false);

  // Open-loop mode: issue one request every `interval_ns` of virtual time
  // (paced like a timestamped trace replay) instead of closed-loop re-issue
  // on completion. iodepth becomes a cap on outstanding requests; arrivals
  // beyond it are queued and issued as completions free capacity, with
  // latency measured from the intended arrival time (no coordinated
  // omission) and the wait reported in DriverReport::queue_delay. 0
  // restores closed-loop.
  void SetArrivalInterval(SimTime interval_ns) {
    arrival_interval_ns_ = interval_ns;
  }

  // Records a driver-lane span ("driver.write"/"driver.read") per request
  // covering submit to completion. Pass nullptr to detach.
  void SetTracer(Tracer* tracer) {
    tracer_ = tracer;
    if (tracer_ != nullptr) {
      span_write_ = tracer_->Intern("driver.write");
      span_read_ = tracer_->Intern("driver.read");
      key_offset_ = tracer_->Intern("offset");
      key_blocks_ = tracer_->Intern("blocks");
    }
  }

  // Runs until `max_requests` have been issued or `max_duration` of virtual
  // time has passed (whichever first), then drains. Pumps the simulator.
  DriverReport Run(uint64_t max_requests, SimTime max_duration);

  // Sequentially writes `blocks` blocks to prefill the target (helper for
  // GC / steady-state experiments). Pumps the simulator.
  static void Fill(Simulator* sim, BlockTarget* target, uint64_t blocks,
                   uint64_t request_blocks = 64, uint64_t epoch = 0);

 private:
  void IssueLoop();
  // Issues the next generator request; `intended` is the arrival time the
  // latency is measured from (== Now() in closed-loop mode and for
  // undeferred open-loop arrivals).
  void IssueOne(SimTime intended);
  // Open-loop issue pump: drains deferred arrivals into free iodepth slots.
  void PumpArrivals();
  bool ShouldStop() const;

  // Pattern-buffer pool: completed reads donate their vectors back so the
  // write path stops allocating a fresh std::vector per issued request.
  // (Writes hand their vector to the target, which consumes it, so the pool
  // is refilled by read completions and capped at iodepth-scale.)
  std::vector<uint64_t> TakePatternBuffer(uint64_t nblocks);
  void RecyclePatternBuffer(std::vector<uint64_t>&& buffer);

  Simulator* sim_;
  BlockTarget* target_;
  WorkloadGenerator* generator_;
  int iodepth_;
  bool verify_reads_;

  uint64_t max_requests_ = 0;
  SimTime start_ = 0;
  SimTime deadline_ = 0;
  uint64_t issued_ = 0;
  uint64_t arrivals_ = 0;  // open-loop arrivals generated (issued + waiting)
  int inflight_ = 0;
  bool in_issue_loop_ = false;
  SimTime arrival_interval_ns_ = 0;
  uint64_t epoch_ = 0;
  SimTime last_completion_ = 0;
  // Open-loop arrivals waiting for an iodepth slot (intended arrival times,
  // in arrival order). Issued from PumpArrivals as completions drain.
  std::deque<SimTime> pending_arrivals_;

  std::unordered_map<uint64_t, uint64_t> expected_;  // verify mode
  std::vector<std::vector<uint64_t>> spare_patterns_;

  Tracer* tracer_ = nullptr;
  uint16_t span_write_ = 0;
  uint16_t span_read_ = 0;
  uint16_t key_offset_ = 0;
  uint16_t key_blocks_ = 0;

  DriverReport report_;
};

// Sequential writer over a ZonedTarget: keeps `parallel_zones` zones being
// written concurrently, one in-flight request per zone (the ZNS ordering
// rule), resetting and reusing zones when the target fills.
class ZonedSeqDriver {
 public:
  ZonedSeqDriver(Simulator* sim, ZonedTarget* target, uint64_t request_blocks,
                 int parallel_zones);

  DriverReport Run(uint64_t max_requests, SimTime max_duration);

 private:
  struct ZoneCursor {
    uint32_t zone;
    uint64_t offset = 0;
    bool busy = false;
  };

  void PumpZone(size_t index);
  bool ShouldStop() const;

  Simulator* sim_;
  ZonedTarget* target_;
  uint64_t request_blocks_;
  std::vector<ZoneCursor> cursors_;
  uint32_t next_zone_;

  uint64_t max_requests_ = 0;
  SimTime start_ = 0;
  SimTime deadline_ = 0;
  uint64_t issued_ = 0;
  int inflight_ = 0;
  SimTime last_completion_ = 0;
  DriverReport report_;
};

}  // namespace biza

#endif  // BIZA_SRC_WORKLOAD_DRIVER_H_
