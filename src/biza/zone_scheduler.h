// ZRWA-aware I/O scheduler for one open zone (§4.4, Fig. 9).
//
// The host cannot see where the device's ZRWA window sits after reorders, so
// the scheduler tracks it with two structures kept in host DRAM:
//
//   bitmap         -- per-block state (queued / in-flight / durable) over the
//                     zone,
//   sliding window -- the ZRWA-sized portion of the bitmap starting at the
//                     completed-contiguous prefix (win_start).
//
// Only writes that fall wholly inside the window are submitted; later blocks
// wait. When the leftmost window block completes, the window slides right
// and queued writes beyond the old edge become eligible (Fig. 9 steps 1-4).
//
// Safety argument (why arbitrary I/O-stack reorder cannot fault a write):
// the device's ZRWA start only advances when a submitted write ends beyond
// flush_ptr + zrwa, i.e. device_flush_ptr <= max_submitted_end - zrwa. The
// scheduler only submits ends <= win_start + zrwa, and win_start never
// passes a block with an outstanding write (completed-prefix rule, and
// in-place updates temporarily mark their block incomplete). Hence every
// in-flight offset >= device_flush_ptr at all times, in any arrival order.
// A property test (tests/biza/zone_scheduler_test.cc) hammers this with
// randomized jitter.
//
// The scheduler also remembers the pattern of every block it wrote while
// the zone is open, so the engine can compute parity deltas for in-place
// updates without touching the device.
#ifndef BIZA_SRC_BIZA_ZONE_SCHEDULER_H_
#define BIZA_SRC_BIZA_ZONE_SCHEDULER_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "src/common/status.h"
#include "src/metrics/tracer.h"
#include "src/sim/simulator.h"
#include "src/zns/zns_device.h"

namespace biza {

class ZoneScheduler {
 public:
  using WriteCallback = std::function<void(const Status&)>;

  // `max_retries` > 0 enables bounded retry-with-backoff for transient
  // (IsRetriable) device write errors; `retry_counter`, when non-null, is
  // incremented on every retry (the engine points it at its stats).
  ZoneScheduler(ZnsDevice* device, uint32_t zone, int max_retries = 0,
                SimTime retry_backoff_ns = 0, uint64_t* retry_counter = nullptr);

  uint32_t zone() const { return zone_; }
  uint64_t capacity() const { return capacity_; }
  uint64_t alloc_ptr() const { return alloc_ptr_; }
  uint64_t win_start() const { return win_start_; }
  uint64_t free_blocks() const { return capacity_ - alloc_ptr_; }

  // Reserves `n` contiguous blocks for first writes; returns the offset.
  // Caller must have checked free_blocks() >= n.
  uint64_t Allocate(uint64_t n);

  // Submits a write of patterns.size() blocks at `offset` (an allocated
  // range, or an in-place update inside the window). Queues until the range
  // fits the sliding window.
  void SubmitWrite(uint64_t offset, std::vector<uint64_t> patterns,
                   std::vector<OobRecord> oobs, WriteCallback cb);

  // True if `offset` can still be overwritten in place (the window has not
  // slid past it and it has been written before).
  bool CanUpdateInPlace(uint64_t offset) const {
    return offset >= win_start_ && offset < alloc_ptr_;
  }

  // Pattern last written at `offset` (valid for any offset < alloc_ptr()).
  uint64_t PatternAt(uint64_t offset) const { return patterns_[offset]; }

  // Idle means no queued jobs, no in-flight jobs, AND no allocated blocks
  // whose first write has not been submitted yet (callers batch writes
  // after allocating).
  bool Idle() const {
    return inflight_ == 0 && queue_.empty() && unsubmitted_ == 0;
  }
  uint64_t inflight() const { return inflight_; }
  size_t queue_depth() const { return queue_.size(); }

  // EWMA (α = 1/8) of enqueue -> first-dispatch wait per job, in ns: how
  // long writes sit behind the window/in-flight cap before the device sees
  // them. The serving frontend's admission caps compose with this — a
  // gray-throttled scheduler shows it as a rising queue delay, which the
  // observability plane exports as the biza.sched_queue_delay_ns gauge.
  SimTime queue_delay_ewma_ns() const {
    return static_cast<SimTime>(queue_delay_ewma_ns_);
  }

  // Records one sched.write span per submitted job, covering queue wait +
  // device write (+ retries). Pass nullptr to detach.
  void SetTracer(Tracer* tracer);

  // Caps concurrent in-flight writes to the device (0 = uncapped). The
  // gray-failure plane sets a small cap on schedulers of a gray device so
  // queued stripes don't convoy behind its stretched completions. Raising
  // or clearing the cap pumps the queue.
  void SetInflightCap(uint64_t cap);
  uint64_t inflight_cap() const { return inflight_cap_; }

  // True once `offset` holds durable data with no queued or in-flight
  // overwrite — i.e. the on-device pattern equals PatternAt(offset) right
  // now and for as long as no new write is submitted. The reconstruct-around
  // read path requires this of every source block it XORs.
  bool StableAt(uint64_t offset) const {
    return offset < alloc_ptr_ && offset < pending_.size() &&
           durable_[offset] && pending_[offset] == 0;
  }

  // After the zone is fully allocated and idle, commits the remaining ZRWA
  // contents so the device transitions the zone to FULL.
  Status Seal();

  // Seals a PARTIALLY allocated idle zone (wasting the unallocated tail):
  // used by GC to harvest mostly-dead zones that would otherwise trap their
  // garbage until they filled.
  Status SealPartial();

 private:
  struct Job {
    uint64_t offset;
    std::vector<uint64_t> patterns;
    std::vector<OobRecord> oobs;
    WriteCallback cb;
    int attempts = 0;
    SimTime enqueued = 0;
  };

  bool FitsWindow(const Job& job) const;
  bool CanDispatch(const Job& job) const;
  // True when a queued (not yet dispatched) job covers a block in
  // [from, to): pending_ counts queued + in-flight writes per block.
  bool QueuedWithin(uint64_t from, uint64_t to) const;
  void Pump();
  void Dispatch(Job job);
  void AdvanceWindow();
  // Extends the per-block vectors to cover [0, n): called from Allocate so
  // resident bookkeeping tracks the allocation frontier, not zone capacity.
  void GrowTo(uint64_t n);

  ZnsDevice* device_;
  uint32_t zone_;
  Tracer* tracer_ = nullptr;
  uint16_t span_write_ = 0;
  uint16_t key_zone_ = 0;
  uint16_t key_offset_ = 0;
  uint64_t capacity_;
  uint32_t zrwa_blocks_;
  int max_retries_ = 0;
  SimTime retry_backoff_ns_ = 0;
  uint64_t* retry_counter_ = nullptr;
  uint64_t inflight_cap_ = 0;  // 0 = uncapped
  uint64_t alloc_ptr_ = 0;
  uint64_t win_start_ = 0;
  uint64_t inflight_ = 0;
  uint64_t unsubmitted_ = 0;  // allocated blocks awaiting their first write
  // Per-block bookkeeping: `pending_` counts queued + in-flight writes (a
  // hot block can have several concurrent in-place updates); `durable_`
  // marks blocks whose first write completed. The window never slides past
  // a block with pending writes — that is the reorder-safety invariant.
  std::vector<uint16_t> pending_;
  std::vector<uint16_t> inflight_cnt_;
  std::vector<bool> durable_;
  std::vector<uint64_t> patterns_;
  // Last OOB record submitted per block — lets a retry rebuild its payload
  // from scheduler state instead of copying every job defensively.
  std::vector<OobRecord> oobs_;
  std::deque<Job> queue_;
  int64_t queue_delay_ewma_ns_ = 0;
};

}  // namespace biza

#endif  // BIZA_SRC_BIZA_ZONE_SCHEDULER_H_
