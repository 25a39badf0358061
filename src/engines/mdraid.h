// mdraid: the Linux software-RAID baseline (md/raid5), modelled with the
// ScalaRAID-style lock optimisation the paper applies (§5.1) yet keeping the
// structural behaviours the paper measures:
//
// * Requests are split into 4 KiB pages before striping (the cause of
//   mdraid+dmzap's collapse in Fig. 10: dm-zap cannot re-merge them, while
//   the block layer re-merges contiguous pages for conventional SSDs —
//   modelled by `block_layer_merge`).
// * A per-array lock serialises page handling: `kLockNsPerPage` of a
//   FIFO resource per page. Even optimised, this keeps mdraid+ConvSSD
//   short of the ideal throughput at large request sizes (Fig. 10).
// * An in-host-DRAM write-back stripe cache absorbs overwrites and merges
//   sequential pages into full-stripe writes; a periodic compensation flush
//   persists dirty stripes (volatile-buffer fault-tolerance trade-off the
//   paper calls out in §5.4).
// * Partial-stripe flushes do reconstruct-writes (read the missing data
//   blocks, recompute parity); full-stripe flushes write k+1 blocks without
//   reads.
// * Degraded reads reconstruct a failed child's block from the survivors.
#ifndef BIZA_SRC_ENGINES_MDRAID_H_
#define BIZA_SRC_ENGINES_MDRAID_H_

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/common/sparse_array.h"
#include "src/engines/rebuild.h"
#include "src/engines/request_front.h"
#include "src/engines/target.h"
#include "src/health/device_health.h"
#include "src/health/read_mitigation.h"
#include "src/metrics/cpu_account.h"
#include "src/metrics/observability.h"
#include "src/raid/geometry.h"
#include "src/sim/simulator.h"

namespace biza {

struct MdraidConfig {
  uint64_t stripe_cache_blocks = 1024;  // dirty-data capacity (4 MiB,
                                        // like md's default stripe cache)
  SimTime flush_interval_ns = 5 * kMillisecond;
  bool block_layer_merge = true;   // false when children are dm-zap targets
};

struct MdraidStats {
  uint64_t user_written_blocks = 0;
  uint64_t user_read_blocks = 0;
  uint64_t flushed_data_blocks = 0;
  uint64_t flushed_parity_blocks = 0;
  uint64_t rmw_read_blocks = 0;
  uint64_t full_stripe_flushes = 0;
  uint64_t partial_stripe_flushes = 0;
  uint64_t degraded_writes = 0;   // flush writes skipped on a failed child
  uint64_t degraded_reads = 0;    // blocks reconstructed around a failed child
  uint64_t read_retries = 0;
  uint64_t write_retries = 0;
  // Gray-failure mitigation plane (SetHealthMonitor).
  ReadMitigationStats mitigation;
};

class Mdraid : public BlockTarget, private RebuildSweep::Engine {
 public:
  Mdraid(Simulator* sim, std::vector<BlockTarget*> children,
         const MdraidConfig& config);
  ~Mdraid() override = default;

  uint64_t capacity_blocks() const override { return capacity_blocks_; }

  void SubmitWrite(uint64_t lbn, std::vector<uint64_t> patterns,
                   WriteCallback cb, WriteTag tag) override;
  void SubmitRead(uint64_t lbn, uint64_t nblocks, ReadCallback cb) override;
  void FlushBuffers(std::function<void()> done) override;

  // Fault injection: marks a child failed. Reads reconstruct from parity;
  // writes skip the failed child (parity keeps the array consistent).
  void SetChildFailed(int child, bool failed);

  // Online rebuild: swaps the failed `child` for `replacement` (an empty
  // device of at least the same capacity) and reconstructs its blocks from
  // the survivors in throttled batches (RebuildSweep) while foreground I/O
  // continues. child_failed_ clears when the sweep completes.
  Status RebuildChild(int child, BlockTarget* replacement);
  const RebuildStats& rebuild() const { return rebuild_.stats(); }

  const MdraidStats& stats() const { return stats_; }
  CpuAccount& cpu() { return cpu_; }
  uint64_t dirty_blocks() const { return dirty_blocks_; }

  // Registers the array's counters ("mdraid.*") and the dirty-block gauge
  // with the registry; engine-lane spans wrap user reads/writes. Pass
  // nullptr to detach.
  void AttachObservability(Observability* obs);

  // Gray-failure mitigation: feeds per-child read/write latencies into
  // `monitor` and, when a child turns suspect/gray, serves its reads by
  // hedging against or reconstructing from the surviving children. Pass
  // nullptr to detach — the array then behaves byte-identically to an
  // unmonitored one.
  void SetHealthMonitor(DeviceHealthMonitor* monitor);

 private:
  // Serialized handling cost per 4 KiB page.
  static constexpr SimTime kLockNsPerPage = 700;
  // Max contiguous stripes per flush batch.
  static constexpr uint64_t kFlushRunStripes = 64;
  // Dirty fraction of the stripe cache above which writes start flushing.
  static constexpr double kFlushHighWatermark = 0.75;

  struct StripeEntry {
    std::vector<uint64_t> patterns;  // k slots
    std::vector<bool> dirty;         // k slots
    uint64_t dirty_count = 0;
    std::list<uint64_t>::iterator lru_it;
  };

  uint64_t StripeOf(uint64_t lbn) const {
    return lbn / static_cast<uint64_t>(k_);
  }
  int SlotOf(uint64_t lbn) const {
    return static_cast<int>(lbn % static_cast<uint64_t>(k_));
  }

  StripeEntry& GetOrCreateEntry(uint64_t stripe);
  void TouchLru(uint64_t stripe);

  // The read body behind the request front (DESIGN.md §4 item 18):
  // SubmitRead runs it for host reads, and a block whose child died under
  // it re-enters it directly.
  void ReadBody(uint64_t lbn, uint64_t nblocks, ReadCallback cb);

  // Flushes the LRU stripe plus contiguous dirty neighbours as one batch.
  void FlushLruBatch(std::function<void()> done);
  // Flushes a contiguous run of stripes [first, first+count).
  void FlushStripeRun(std::vector<uint64_t> stripes, std::function<void()> done);
  void MaybeScheduleTimer();
  void OnTimer();
  void MaybeReleaseStalled();

  // Fault plane. Reads of a rebuilding child stay forbidden until the
  // sweep finishes (its blocks may still be stale).
  bool ChildWritable(int child) const { return rebuild_.Writable(child); }
  void OnChildUnavailable(int child) { rebuild_.MemberLost(child); }
  // Child I/O with bounded retry-with-backoff for transient errors
  // (IssueWithRetry); the outcome feeds the health monitor, if any.
  void ChildRead(int child, uint64_t offset, uint64_t nblocks,
                 std::function<void(const Status&, std::vector<uint64_t>)> cb);
  void ChildWrite(int child, uint64_t offset, std::vector<uint64_t> patterns,
                  WriteTag tag, WriteCallback cb);
  // The rebuild's engine side: every written stripe, with those dirty in
  // the cache put off to a second pass after one cache flush.
  void RebuildRescan(std::function<void(RebuildSweep::Keys)> next) override;
  bool RebuildTake(uint64_t stripe) override;
  void RebuildMigrate(RebuildSweep::Keys stripes,
                      const RebuildSweep::Token& token) override;

  // Gray-failure mitigation plane. A reconstruct-around read is sound only
  // while the disks hold a self-consistent image of `stripe`: no failed
  // child (survivors complete), no rebuild in flight (the replacement's
  // blocks may be stale), and no flush of this same stripe mid-write (data
  // and parity land independently). Dirty *sibling* slots in the cache are
  // harmless — parity on disk still covers the old data on disk.
  bool CanReconstruct(uint64_t stripe) const;
  // XOR of the other n-1 children's blocks at offset `stripe` = `child`'s
  // block there. Registers the stripe in recon_active_ so a flush cannot
  // write it from under the reads.
  void ReconstructBlock(uint64_t stripe, int child,
                        std::function<void(const Status&, uint64_t)> cb);
  void OnReconDone(uint64_t stripe);

  Simulator* sim_;
  std::vector<BlockTarget*> children_;
  MdraidConfig config_;
  StripeGeometry geometry_;
  int n_;
  int k_;
  uint64_t capacity_blocks_;
  uint64_t stripes_total_;

  FifoResource lock_;

  std::unordered_map<uint64_t, StripeEntry> cache_;
  std::list<uint64_t> lru_;  // front = most recent
  uint64_t dirty_blocks_ = 0;
  bool timer_scheduled_ = false;
  bool flush_in_progress_ = false;
  std::vector<std::function<void()>> stalled_;  // writes awaiting cache space

  std::vector<bool> child_failed_;

  // Gray-failure mitigation state. recon_active_ counts in-flight
  // reconstructions per stripe (flushes skip those stripes and park a retry
  // in recon_waiters_ when nothing else is flushable, so the drain never
  // spins at one timestamp). flushing_stripes_ holds stripes between flush
  // detach and last child-write completion; recons refuse them.
  DeviceHealthMonitor* health_ = nullptr;
  std::unordered_map<uint64_t, int> recon_active_;
  std::unordered_set<uint64_t> flushing_stripes_;
  std::vector<std::function<void()>> recon_waiters_;

  // Online-rebuild state (see RebuildChild).
  RebuildSweep rebuild_;
  std::vector<uint64_t> rebuild_deferred_;  // dirty-in-cache, revisit later
  // Written-stripe bitmap, like md's write-intent bitmap: ChildWrite sets
  // bit s for every offset s it writes, on any child. A stripe never
  // written reads zero on every member, the spare included, so the rebuild
  // skips it. Chunked, so resident memory follows the written footprint.
  ChunkedArray<uint64_t> written_stripes_;

  MdraidStats stats_;
  RequestFront front_;
  CpuAccount cpu_;
};

}  // namespace biza

#endif  // BIZA_SRC_ENGINES_MDRAID_H_
